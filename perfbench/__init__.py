"""KG-build benchmark (see run.py and README.md)."""
