"""Metric-space k-NN laboratory."""
