"""Certified lower bounds on derivative scales from covering geometry.

The pipeline: describe a set of (near-)critical values (`sets`), count how
many radius-eps balls it takes to cover it (`covering`), invert the
forward counting bound wherever the count is too rich (`bounds`), and
cross-examine the result against explicit staircase witnesses (`witness`)
and against values extracted from actual sampled maps (`critical`).
"""

__version__ = "0.1.0"
