"""The repository's one benchmark: see README.md in this directory.

The package marker keeps ``trace.py`` importable as ``suite.trace`` only, so
it never shadows the standard library's ``trace`` module.
"""
