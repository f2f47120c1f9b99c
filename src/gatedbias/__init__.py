"""Structure-gated inference-time personalization over a frozen KG scorer.

A frozen DistMult backbone ranks candidate tails; a tiny trainable head adds a
per-entity bias gated by the training graph's attribute structure and weighted
by population profile features. The package covers data loading, backbone
training, gate and profile construction, head training (plus a profile-agnostic
MLP ablation), and a filtered-ranking evaluation battery with counterfactual
and placebo checks.
"""

__version__ = "0.1.0"
