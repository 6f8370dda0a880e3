"""Batch transit analytics: itinerary reconstruction from GPS logs,
virtual-terminal clustering, and routing-benefit evaluation.

Import names from their modules, for example
``from bustrace.detection import detect``.
"""

__version__ = "0.1.0"
