"""Oracle for `qpoly.primitive`: nested staircase integration.

`potential_of_closed_form` integrates a closed 1-form one axis at a time,
each step correcting by the derivative of the partial sum so far.
`staircase_primitive` applies it once per index of a closed symmetric
tensor, integrating the first index away each time, and then drops the
polynomial part of degree below the order, so its result is normalized as
`primitive`'s is.
"""

from flatpencil.qpoly import QPoly


def potential_of_closed_form(components: list[QPoly]) -> QPoly:
    """A primitive h with d_i h = components[i], by staircase integration.

    Requires the closedness d_i c_j = d_j c_i; integration constants are
    fixed to zero termwise.
    """
    n = len(components)
    h = QPoly.zero(components[0].nvars)
    for i in range(n):
        h = h + (components[i] - h.diff(i)).integrate(i)
    return h


def _first_index_integrated(tensor: list, order: int):
    """The tensor of depth order - 1 whose entry at I is the staircase
    primitive of the 1-form a -> tensor[a][I]."""
    if order == 1:
        return potential_of_closed_form(tensor)
    n = len(tensor)
    return [_first_index_integrated([tensor[a][j] for a in range(n)], order - 1) for j in range(n)]


def staircase_primitive(tensor: list, order: int) -> QPoly:
    """The h with d_{i1}...d_{ik} h = tensor[i1]...[ik] (k = ``order``) and
    no exp-free term of total degree below k."""
    h = tensor
    for k in range(order, 0, -1):
        h = _first_index_integrated(h, k)
    return h - h.poly_part_degree_at_most(order - 1)
