"""K-groups of square-zero multivariable extensions over finite coefficient rings.

The package root exports nothing but __version__: import from the
submodules (kax.kcalc, kax.words, kax.witt, ...), so that a process loads
only the layers it uses.
"""

__version__ = "0.1.0"
