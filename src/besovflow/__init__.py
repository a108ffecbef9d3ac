"""Dyadic sequence spaces, Littlewood-Paley analysis, and flow-map continuity checks.

Every public name lives in, and is imported from, its module:
``besovflow.pseudonorm``, ``dyadic``, ``littlewood_paley``, ``envelope``,
``engine``, ``flows`` and ``cli``, each with its ``__all__``.  Importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
