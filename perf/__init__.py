"""Wall-clock access benchmark for the GlobeDoc reproduction.

Everything here drives the real stack (naming, location, object server,
proxy) on ``RealClock`` with no ``simnet``/``SimClock``; see
``perf/README.md`` for the workloads, metrics and rules.
"""
