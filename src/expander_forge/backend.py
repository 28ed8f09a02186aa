"""The kernel stamp: every computation runs on numpy, and `ACTIVE_BACKEND`
says so. The module holds no kernel. It stays because the benchmark harness
reads the stamp into its environment record and imports this module when it
installs its span recorders; it can go once the harness no longer does.
"""

ACTIVE_BACKEND = "numpy"
