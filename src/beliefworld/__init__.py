"""Symbolic belief worlds for decentralized multi-agent transport.

A symbolic belief language, per-agent belief stores with
theory-of-mind partitions, a propose-and-revise rule consensus, an
update/predict/decide collaboration loop with adaptive messaging, a
deterministic lockstep transport simulator, pluggable reasoning backends
(deterministic scripted, OpenAI-compatible HTTP), and a batch harness.
"""

__version__ = "0.1.0"
