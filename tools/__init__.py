"""Repo tooling namespace.  Packaged (pyproject packages.find includes
``tools*``) so the ``fncc-lint`` console script can live here alongside the
un-packaged utility scripts (profile.py, tie_report.py) that are run by path.
"""
