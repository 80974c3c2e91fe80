"""
Circular distances
==================

Splits that cut one circular arrangement of the elements into two arcs can
carry weights like tree edges do.  Distances generated that way admit a
second order distance algorithm, provided q = p/2: every strict comparison
side is then an arc of the same circle, so it can be found by binary
search instead of comparing whole rankings.
"""

import random

from ordist import (
    CircularOrdering,
    GroundSet,
    OrderParams,
    WeightedSplitSystem,
    generate_distance,
    is_circular_split_system,
    maximum_circular_splits,
    order_distance_circular,
    order_distance_eq1,
    random_maximum_circular_system,
    recover_circular_ordering,
)

# put six points on a circle and weight every arc split of it
ground = GroundSet("abcdef")
theta = CircularOrdering(ground, [0, 2, 4, 1, 5, 3])
rng = random.Random(11)
weights = {s: rng.randint(1, 9) for s in maximum_circular_splits(theta)}
system = WeightedSplitSystem(ground, weights.items())
d = generate_distance(system)

# the arrangement can be read back from the distance alone
recovered = recover_circular_ordering(d)
print(f"planted ordering:   {theta}")
print(f"recovered ordering: {recovered}")
assert recovered == theta

# and the unweighted split system is recognized as circular directly
assert is_circular_split_system(system) == theta

# the fast engine agrees with the direct computation exactly
o_fast = order_distance_circular(d, OrderParams(2, 1))
o_direct = order_distance_eq1(d, OrderParams(2, 1))
assert o_fast == o_direct
print(f"engines agree, O(a,b) = {o_fast.by_label('a', 'b')}")

# the order distance of a circular distance is circular again
assert recover_circular_ordering(o_fast) is not None

# both engines agree on larger inputs too; perfbench/ times them
for n in (16, 32, 64):
    _, big = random_maximum_circular_system(n, rng)
    big_d = generate_distance(big)
    fast = order_distance_circular(big_d, OrderParams(2, 1))
    direct = order_distance_eq1(big_d, OrderParams(2, 1))
    assert fast == direct
    print(f"n={n:3d}: arc engine and direct computation agree")
