"""Legacy setup shim.

The execution environment has no ``wheel`` package and no network access, so
PEP 660 editable installs (which must build a wheel) fail.  This shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to the
classic ``setup.py develop`` code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
