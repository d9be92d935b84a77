"""Tests of the benchmark's own arithmetic, generators and output checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
