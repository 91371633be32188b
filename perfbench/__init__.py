"""Repository benchmark: Monte-Carlo throughput and BP-SF/BP-OSD serving
latency, with a traced per-layer split.  Run ``perfbench/run.py``."""
