"""Reference implementations kept only as test oracles.

Each one is the straightforward version of a shipped fast path; parity
tests require the shipped code to reproduce it exactly.
"""
