"""Individual and group fairness measures for community detection."""

__version__ = "0.1.0"
