"""Quotient-space motion prediction: encoding, model, training, evaluation.

Every name is imported from its module, as in ``from mqmotion.train import
Trainer``; the package itself imports nothing.
"""

__version__ = "0.1.0"
