"""Multi-value rule set classifiers learned by annealed MAP search."""

__version__ = "0.1.0"
