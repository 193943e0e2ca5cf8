"""Chunk-wise GBDT feature selection feeding a meta-learned MLP classifier.

Importing the package loads none of its modules, so a CLI stage loads only
the modules its command runs; import each one by name.
"""

__all__ = ["cfsgb", "config", "dataset", "errors", "gbdt", "maml", "metrics"]
__version__ = "0.1.0"
