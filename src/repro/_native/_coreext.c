/* Compiled placement kernel: the positional inner loop of the MET (and
 * power-aware MET) scheduling policy, behind the same semantics as the
 * pure-Python loop in repro.runtime.schedulers.met.  Everything else — the
 * event engine, the ready list, every other policy, EFT's placement loop
 * included — is Python only (see docs/performance.md, "The compiled core",
 * for the measurements that decided what stayed).
 *
 * Bit-identity contract: every comparison, tie-break and iteration order
 * below replicates the pure loop exactly.  All arithmetic is on C doubles,
 * which are the same IEEE-754 binary64 values CPython floats hold.
 *
 * The kernel receives the tasks to visit in order, the scheduler's
 * estimate-row cache (id(node) -> (node, row)), the scheduler's
 * estimate_row(task, handlers) method, which computes (and caches) a
 * missing row, the handler list, and the positions of the usable idle PEs
 * as Scheduler.usable_idle chose them.  The caller has run
 * _sync_row_cache(handlers) first, so the cache dict's identity is stable
 * for the whole pass.  The result is a list of (task, position) pairs in
 * dispatch order; the Python side maps them to Assignments.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *str_node;
static PyObject *str_pe_id;

/* ------------------------------------------------------------------ */
/* Row-cache mirror: an open-addressed pointer table over the          */
/* scheduler's estimate-row dict, so the per-task lookup skips boxing  */
/* id(node) into a PyLong and hashing it.  Sound because of the cache  */
/* contract in Scheduler._sync_row_cache: entries are only ever        */
/* *added* to a cache dict; invalidation replaces the whole dict       */
/* object.  Identity change resets the mirror; a size change (the      */
/* miss added rows) resyncs it.  Row pointers are borrowed from        */
/* the dict, which cannot drop them while the mirror holds a strong    */
/* reference to the dict itself.                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    void *key;       /* the node pointer (== id(node)) */
    PyObject *row;   /* borrowed from the dict's (node, row) tuple */
} MirrorSlot;

static struct {
    PyObject *dict;        /* strong ref; NULL when empty */
    Py_ssize_t dict_size;  /* dict size at last sync */
    MirrorSlot *slots;
    size_t mask;           /* table capacity - 1 (capacity is a power of 2) */
} mirror;

static inline size_t
mirror_hash(void *p)
{
    /* Pointers are aligned; spread the useful bits. */
    uintptr_t x = (uintptr_t)p >> 4;
    x ^= x >> 17;
    return (size_t)x;
}

static int
mirror_sync(PyObject *cache)
{
    Py_ssize_t n = PyDict_GET_SIZE(cache);
    size_t cap = 16;
    while ((size_t)n * 2 >= cap)
        cap <<= 1;
    if (!mirror.slots || mirror.mask + 1 < cap) {
        PyMem_Free(mirror.slots);
        mirror.slots = PyMem_Calloc(cap, sizeof(MirrorSlot));
        if (!mirror.slots) {
            mirror.mask = 0;
            Py_CLEAR(mirror.dict);
            PyErr_NoMemory();
            return -1;
        }
        mirror.mask = cap - 1;
    } else {
        memset(mirror.slots, 0, (mirror.mask + 1) * sizeof(MirrorSlot));
    }
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(cache, &pos, &key, &value)) {
        if (!PyTuple_Check(value) || PyTuple_GET_SIZE(value) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "row cache entries must be (node, row) tuples");
            Py_CLEAR(mirror.dict); /* don't leave a half-built mirror live */
            return -1;
        }
        void *node = PyLong_AsVoidPtr(key);
        if (!node && PyErr_Occurred()) {
            Py_CLEAR(mirror.dict);
            return -1;
        }
        size_t i = mirror_hash(node) & mirror.mask;
        while (mirror.slots[i].key)
            i = (i + 1) & mirror.mask;
        mirror.slots[i].key = node;
        mirror.slots[i].row = PyTuple_GET_ITEM(value, 1);
    }
    if (mirror.dict != cache) {
        Py_INCREF(cache);
        Py_XSETREF(mirror.dict, cache);
    }
    mirror.dict_size = n;
    return 0;
}

/* Estimate row of `task`: same key as the pure cache (id(node) ==
 * PyLong_FromVoidPtr(node) in CPython).  Returns a new reference to a
 * tuple, or NULL with an exception set. */
static PyObject *
fetch_row(PyObject *cache, PyObject *task, PyObject *estimate_row,
          PyObject *handlers)
{
    PyObject *node = PyObject_GetAttr(task, str_node);
    if (!node)
        return NULL;
    Py_DECREF(node); /* the task keeps its node alive for the pass */
    if (mirror.dict != cache || mirror.dict_size != PyDict_GET_SIZE(cache)) {
        if (mirror_sync(cache) < 0)
            return NULL;
    }
    PyObject *row = NULL;
    size_t i = mirror_hash((void *)node) & mirror.mask;
    while (mirror.slots[i].key) {
        if (mirror.slots[i].key == (void *)node) {
            row = mirror.slots[i].row;
            Py_INCREF(row);
            break;
        }
        i = (i + 1) & mirror.mask;
    }
    /* Miss: compute via estimate_row(task, handlers), which inserts into
     * the dict; the size change triggers a resync on the next lookup. */
    if (!row && !(row = PyObject_CallFunctionObjArgs(estimate_row, task,
                                                     handlers, NULL)))
        return NULL;
    if (!PyTuple_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "estimate row must be a tuple");
        Py_DECREF(row);
        return NULL;
    }
    return row;
}

/* The usable idle positions as a fresh array (caller frees).  This is the
 * kernel boundary: whatever Python hands over is checked before it is used
 * as an index.  A position whose PE has meanwhile left IDLE is not an
 * error — the policies act on a snapshot (Scheduler.failed_mask) and the
 * workload manager's commit re-filters. */
static Py_ssize_t *
usable_positions(PyObject *handlers, PyObject *usable, Py_ssize_t *out_n)
{
    if (!PyList_Check(handlers) || !PyList_Check(usable)) {
        PyErr_SetString(PyExc_TypeError,
                        "handlers and usable positions must be lists");
        return NULL;
    }
    Py_ssize_t m = PyList_GET_SIZE(handlers), n = PyList_GET_SIZE(usable);
    Py_ssize_t *pos = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Py_ssize_t));
    if (!pos) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *item = PyList_GET_ITEM(usable, k);
        if (!PyLong_Check(item)) {
            PyErr_SetString(PyExc_TypeError,
                            "usable positions must be ints");
            goto fail;
        }
        pos[k] = PyLong_AsSsize_t(item);
        if (pos[k] == -1 && PyErr_Occurred()) {
            PyErr_Clear(); /* too large for a Py_ssize_t: out of range */
            pos[k] = -1;
        }
        if (pos[k] < 0 || pos[k] >= m) {
            PyErr_Format(PyExc_ValueError,
                         "usable position %S is outside the %zd handlers",
                         item, m);
            goto fail;
        }
    }
    *out_n = n;
    return pos;
fail:
    PyMem_Free(pos);
    return NULL;
}

static int
append_pair(PyObject *result, PyObject *task, Py_ssize_t index)
{
    PyObject *pair = Py_BuildValue("(On)", task, index);
    if (!pair)
        return -1;
    int rc = PyList_Append(result, pair);
    Py_DECREF(pair);
    return rc;
}

/* met_pass(ready, cache, estimate_row, handlers, usable, powers)
 * The MET / power-aware MET loop of schedulers/met.py: each task onto the
 * usable idle PE with the smallest (cost, pe_id), which then leaves the
 * pool.  ``powers`` is a list of cost multipliers aligned with ``usable``,
 * or None for plain MET (cost = the estimate). */
static PyObject *
coreext_met_pass(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *ready, *cache, *estimate_row, *handlers, *usable, *pow_list;
    if (!PyArg_ParseTuple(args, "OO!OOOO:met_pass", &ready, &PyDict_Type,
                          &cache, &estimate_row, &handlers, &usable,
                          &pow_list))
        return NULL;
    Py_ssize_t m = 0;
    Py_ssize_t *pos = usable_positions(handlers, usable, &m);
    if (!pos)
        return NULL;
    long long *peid = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(long long));
    double *powers = NULL;
    PyObject *result = NULL, *iter = NULL;
    if (!peid) {
        PyErr_NoMemory();
        goto fail;
    }
    if (pow_list != Py_None) {
        if (!PyList_Check(pow_list) || PyList_GET_SIZE(pow_list) != m) {
            PyErr_SetString(PyExc_ValueError,
                            "met_pass: one multiplier per usable position");
            goto fail;
        }
        powers = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(double));
        if (!powers) {
            PyErr_NoMemory();
            goto fail;
        }
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *id = PyObject_GetAttr(PyList_GET_ITEM(handlers, pos[k]),
                                        str_pe_id);
        if (!id)
            goto fail;
        peid[k] = PyLong_AsLongLong(id);
        Py_DECREF(id);
        if (peid[k] == -1 && PyErr_Occurred())
            goto fail;
        if (powers) {
            powers[k] = PyFloat_AsDouble(PyList_GET_ITEM(pow_list, k));
            if (powers[k] == -1.0 && PyErr_Occurred())
                goto fail;
        }
    }
    result = PyList_New(0);
    if (!result)
        goto fail;
    iter = PyObject_GetIter(ready);
    if (!iter)
        goto fail;
    PyObject *task;
    while (m > 0 && (task = PyIter_Next(iter))) {
        PyObject *row = fetch_row(cache, task, estimate_row, handlers);
        if (!row) {
            Py_DECREF(task);
            goto fail;
        }
        Py_ssize_t rn = PyTuple_GET_SIZE(row);
        Py_ssize_t best_k = -1;
        double best_cost = 0.0;
        for (Py_ssize_t k = 0; k < m; k++) {
            if (pos[k] >= rn)
                continue;
            PyObject *est = PyTuple_GET_ITEM(row, pos[k]);
            if (est == Py_None)
                continue;
            double e = PyFloat_AsDouble(est);
            if (e == -1.0 && PyErr_Occurred()) {
                Py_DECREF(row);
                Py_DECREF(task);
                goto fail;
            }
            double cost = powers ? e * powers[k] : e;
            /* (cost, pe_id) < (best_cost, best_pe_id), as tuples compare */
            if (best_k < 0 || cost < best_cost ||
                (cost == best_cost && peid[k] < peid[best_k])) {
                best_k = k;
                best_cost = cost;
            }
        }
        Py_DECREF(row);
        if (best_k >= 0) {
            if (append_pair(result, task, pos[best_k]) < 0) {
                Py_DECREF(task);
                goto fail;
            }
            /* available.pop(best_k) */
            size_t tail = (size_t)(m - best_k - 1);
            memmove(&pos[best_k], &pos[best_k + 1], tail * sizeof(*pos));
            memmove(&peid[best_k], &peid[best_k + 1], tail * sizeof(*peid));
            if (powers)
                memmove(&powers[best_k], &powers[best_k + 1],
                        tail * sizeof(*powers));
            m -= 1;
        }
        Py_DECREF(task);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(iter);
    PyMem_Free(pos);
    PyMem_Free(peid);
    PyMem_Free(powers);
    return result;
fail:
    Py_XDECREF(iter);
    Py_XDECREF(result);
    PyMem_Free(pos);
    PyMem_Free(peid);
    PyMem_Free(powers);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Module init                                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef coreext_methods[] = {
    {"met_pass", coreext_met_pass, METH_VARARGS,
     "met_pass(ready, cache, estimate_row, handlers, usable, powers) -> "
     "[(task, position), ...]"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef coreext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._native._coreext",
    .m_doc = "Compiled MET placement kernel.",
    .m_size = -1,
    .m_methods = coreext_methods,
};

PyMODINIT_FUNC
PyInit__coreext(void)
{
    str_node = PyUnicode_InternFromString("node");
    str_pe_id = PyUnicode_InternFromString("pe_id");
    if (!str_node || !str_pe_id)
        return NULL;

    PyObject *m = PyModule_Create(&coreext_module);
    if (!m)
        return NULL;
    /* "api" is what repro._native.load() checks against its own API: bump
     * both whenever a kernel's signature or meaning changes, so a stale
     * in-place build reads as "not importable" instead of misbehaving. */
    PyObject *build = Py_BuildValue(
        "{s:s, s:s, s:s, s:i}",
        "toolchain", "gcc",
        "compiler_version", __VERSION__,
        "python", PY_VERSION,
        "api", 3);
    if (!build || PyModule_AddObject(m, "BUILD_INFO", build) < 0) {
        Py_XDECREF(build);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
