"""Direct factoring through Sigma T-perp by one linear solve: the reference
that the entry-wise verdict of ``rigid.factors_through_subcat`` is checked
against.

f: x -> y factors through Sigma T-perp exactly when it factors through the
left Sigma T-perp-approximation l: x -> Z of its source, that is when
Hom(l, y) v = f has a solution.  This assembles l as one block-diagonal map
(``left_sigma_perp_approx``) and solves that system over Q
(``factors_through_mor``), without using that l is block diagonal or that
hom spaces between arcs are at most 1-dimensional.
"""

from cluster_loc.rigid import factors_through_mor, left_sigma_perp_approx


def factors_through_sigma_perp(cat, t, f) -> bool:
    return factors_through_mor(cat, f, left_sigma_perp_approx(cat, t, f.src))
