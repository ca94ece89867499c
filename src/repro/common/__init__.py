"""Shared infrastructure: errors, units, RNG management, logging, id pools.

Import each name from its defining module (``repro.common.errors``,
``repro.common.units``, ...).
"""
