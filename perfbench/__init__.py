"""Benchmark for the omprag pipeline: see perfbench/README.md."""
