"""Build shim: editable-install fallback.

`pip install -e .` needs bdist_wheel under PEP 660.  On a host with no
network access to fetch it, `python setup.py develop` (or `pip install -e .
--config-settings editable_mode=compat`) provides the fallback.
Configuration lives in pyproject.toml.
"""

from setuptools import setup

setup()
