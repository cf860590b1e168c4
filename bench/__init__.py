"""The repo's end-to-end benchmark (see bench/README.md; entry point bench/run.py)."""
