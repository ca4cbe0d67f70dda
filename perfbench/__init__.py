"""Flowsim benchmark: end-to-end and per-layer measurement of the
production simulation path (see ``run.py``)."""
