"""Ext charts over finite sub-Hopf algebras of the mod-2 Steenrod algebra."""

__version__ = "0.1.0"

# the cobar oracle's hard budget: cobar refuses larger windows, and the
# command line checks its bounds against these without compiling cobar
COBAR_MAX_S = 7
COBAR_MAX_STEM = 14
