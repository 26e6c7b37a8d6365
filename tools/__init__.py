"""Repo tooling namespace.  Packaged (pyproject packages.find includes
``tools*``) so the ``fncc-lint`` console script can live here alongside the
un-packaged utility script (profile.py) that is run by path.
"""
