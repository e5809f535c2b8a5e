"""Benchmark harness for dialroute: workloads, spans and output checks."""
