"""Experiment drivers reproducing every table and figure of the paper.

* :mod:`repro.experiments.workloads` — Table II workloads and the Fig. 9 /
  Fig. 11 workload definitions.
* :mod:`repro.experiments.case_study_1` — validation mode across DSSoC
  configurations (Fig. 9a/9b).
* :mod:`repro.experiments.case_study_2` — performance mode, scheduler
  comparison (Tables I–II, Fig. 10a/10b).
* :mod:`repro.experiments.case_study_3` — Odroid XU3 portability sweep
  (Fig. 11).
* :mod:`repro.experiments.case_study_4` — automatic application conversion
  (kernel detection, recognition, substitution speedups).
* :mod:`repro.experiments.monolithic` — the unlabeled monolithic range-
  detection program Case Study 4 converts.
* :mod:`repro.experiments.ablations` — reservation queues, the
  overhead-blind (DS3-style) estimate and power-aware MET.
* :mod:`repro.experiments.report` — ``python -m repro.experiments.report``
  regenerates every artifact above into ``artifacts/`` and exits 1 when one
  breaks the paper's claims.
"""
