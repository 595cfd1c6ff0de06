"""Benchmark of the cowsec command line; see bench/README.md."""
