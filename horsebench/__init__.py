"""horsebench: wall seconds per simulated second, end to end and per
layer, on six pinned workloads.  See README.md in this directory."""
