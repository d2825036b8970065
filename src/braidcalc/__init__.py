"""Exact braid-word calculus for closed-braid link invariants.

Submodules: words (braid words), links (closure components, linking,
Alexander polynomial), moves (stabilization towers), b3 (three-strand
conjugacy and closure classification), templates (block-strand move
templates), certify (the flype-family certifier), cli (command-line
front door).
"""

__version__ = "0.1.0"
