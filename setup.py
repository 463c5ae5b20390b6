"""Setuptools shim.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 517 editable installs (which build a wheel) fail.  This shim lets
``pip install -e . --no-build-isolation`` fall back to the legacy
``setup.py develop`` path.  ``setup()`` takes no arguments and there is
no other metadata file: setuptools discovers the ``repro`` package under
``src/`` and names the distribution after it, at version 0.0.0.  No install
is needed to run the tests or the CLI from a checkout: set
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
