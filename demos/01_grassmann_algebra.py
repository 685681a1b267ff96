"""
Exact arithmetic in a Grassmann algebra
=======================================

Elements are sparse dictionaries over increasing index tuples with
Fraction coefficients, so every computation here is exact.
"""

from fractions import Fraction

from superdiff import GrassmannElement, GrassmannMorphism

# two generators anticommute: t1*t2 = -t2*t1, and squares vanish
t1 = GrassmannElement.generator(1, 3)
t2 = GrassmannElement.generator(2, 3)
t3 = GrassmannElement.generator(3, 3)
print("t1*t2      =", t1 * t2)
print("t2*t1      =", t2 * t1)
print("t1*t1      =", t1 * t1)

# a general element has a scalar body and a nilpotent soul
a = GrassmannElement.scalar(2, 3) + (t1 * t2).scale(Fraction(1, 3)) + t3
print("a          =", a)
print("body(a)    =", a.body)
print("soul(a)^4  =", a.soul() ** 4)

# substituting odd images for the generators is an algebra morphism;
# here generator 3 is sent to zero and the first two are kept
relabel = GrassmannMorphism(
    3,
    2,
    [
        GrassmannElement.generator(1, 2),
        GrassmannElement.generator(2, 2),
        GrassmannElement.zero(2),
    ],
)
b = t1 * t2 + t2 * t3
print("b          =", b)
print("relabel(b) =", relabel.apply(b))
