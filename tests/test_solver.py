from quartic_galois.gaussian import GaussianRational as GR
from quartic_galois.gaussian import I, ONE, ZERO
from quartic_galois.solver import resultant


def test_resultant_sylvester():
    # Res(x^2 + 1, x - 2) = (i - 2)(-i - 2) = 5, and a common root gives 0
    assert resultant([ONE, ZERO, ONE], [GR(-2), ONE]) == GR(5)
    assert resultant([ONE, ZERO, ONE], [-I, ONE]) == ZERO
    # Res(x - a, x - b) = a - b; constants give a power of the constant
    assert resultant([GR(-3), ONE], [GR(-1, 1), ONE]) == GR(3) - GR(1, -1)
    assert resultant([GR(2)], [GR(1), GR(1), ONE]) == GR(4)
