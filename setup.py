"""Setup shim: metadata lives in pyproject.toml.

Exists so that ``pip install -e .`` works in offline environments whose
setuptools lacks PEP 517 editable-wheel support (no ``wheel`` package).
"""

from setuptools import setup

setup()
