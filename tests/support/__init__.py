"""Test rigs that plug into the library's own seams; ``src/`` never
imports them."""
