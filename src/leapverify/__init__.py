"""Speculative training with verify-then-accept weight prediction.

Train normally, and at every checkpoint predict the weights K steps ahead
with a cheap analytic extrapolator. Score the prediction on held-out data;
if it passes an acceptance criterion, leap there and skip the K gradient
steps, otherwise continue as if nothing happened. Prediction quality is
gated on the training regime (chaotic / transition / stable), classified
from the drift of activation fingerprints between checkpoints.
"""

__version__ = "0.1.0"
