"""Map evaluation, derivatives, and cycle certification."""

import random

import pytest

from tricert.dynamics import (
    OMEGA,
    ConjHolomorphicForm,
    EscapeResult,
    NewtonStatus,
    antiholo_modulus,
    escape_test,
    eval_f,
    eval_f2,
    even_iterate,
    float_f,
    float_iterate,
    float_newton_cycle,
    float_newton_fixed,
    holo_derivative,
    interval_newton_fixed,
    krawczyk_absence,
    krawczyk_cycle,
)
from tricert.intervals import ComplexBox, Interval


def _pt(z: complex) -> ComplexBox:
    return ComplexBox.point(z)


class TestEvaluation:
    def test_eval_f_at_i(self):
        assert eval_f(_pt(0j), _pt(1j)).contains(-1 + 0j)

    def test_superattracting_two_cycle(self):
        c = _pt(-1 + 0j)
        z1 = eval_f(c, _pt(0j))
        assert z1.contains(-1 + 0j)
        assert eval_f(c, z1).contains(0j)

    def test_eval_f2_point(self):
        # c=0, z=2: second iterate is z^4
        assert eval_f2(_pt(0j), _pt(2 + 0j)).contains(16 + 0j)

    def test_eval_f2_matches_composition(self):
        rng = random.Random(11)
        for _ in range(2000):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            twice = eval_f(_pt(c), eval_f(_pt(c), _pt(z)))
            direct = eval_f2(_pt(c), _pt(z))
            w = float_f(c, float_f(c, z))
            assert twice.contains(w)
            assert direct.contains(w)
            assert direct.intersects(twice)

    def test_iterate_integer_orbit(self):
        # c=1, z=1: 1, 2, 5, 26, 677, exactly representable
        box = _pt(1 + 0j)
        for value in (1.0, 2.0, 5.0, 26.0, 677.0):
            assert box.contains(complex(value, 0.0))
            box = eval_f(_pt(1 + 0j), box)

    def test_iterate_alternating_orbit(self):
        box = _pt(0j)
        for value in (0.0, -1.0, 0.0, -1.0, 0.0):
            assert box.contains(complex(value, 0.0))
            box = eval_f(_pt(-1 + 0j), box)


class TestEscape:
    def test_large_c_escapes(self):
        res = escape_test(_pt(3 + 0j), _pt(0j), 20)
        assert res.escaped
        assert res.iterations <= 3

    def test_origin_bounded(self):
        res = escape_test(_pt(0j), _pt(0j), 50)
        assert res.kind == EscapeResult.BOUNDED

    def test_conjugation_symmetry(self):
        # float orbits commute with conjugation bit-exactly
        rng = random.Random(12)
        for _ in range(200):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for k in range(1, 12):
                a = float_iterate(c, 0j, k)
                b = float_iterate(c.conjugate(), 0j, k)
                if abs(a.real) > 1e100 or abs(a.imag) > 1e100:
                    break
                assert a.conjugate() == b
            ra = escape_test(_pt(c), _pt(0j), 30)
            rb = escape_test(_pt(c.conjugate()), _pt(0j), 30)
            assert ra.kind == rb.kind


class TestDerivatives:
    def test_critical_point(self):
        d = holo_derivative(_pt(1j), ComplexBox.point(0j), 2)
        assert d.contains(0j)

    def test_quartic_derivative(self):
        # c=0: f^2 = z^4, derivative 4 at z=1
        d = holo_derivative(_pt(0j), _pt(1 + 0j), 2)
        assert d.contains(4 + 0j)

    def test_finite_difference_agreement(self):
        rng = random.Random(13)
        h = 1e-7
        checked = 0
        while checked < 300:
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            n = rng.choice((2, 4))

            def g(w):
                for _ in range(n // 2):
                    w = (w * w + c.conjugate()) ** 2 + c
                return w

            approx = (g(z + h) - g(z - h)) / (2 * h)
            if abs(approx) < 1e-3:
                continue
            d = holo_derivative(_pt(c), _pt(z), n).midpoint()
            assert abs(d - approx) <= 1e-6 * abs(approx)
            checked += 1

    def test_modulus_superattracting(self):
        orbit = [_pt(0j), _pt(-1 + 0j)]
        assert antiholo_modulus(orbit).contains(0.0)

    def test_modulus_lower_bound_with_origin(self):
        orbit = [ComplexBox(Interval(-0.1, 0.1), Interval(-0.1, 0.1)), _pt(1 + 0j)]
        m = antiholo_modulus(orbit)
        assert m.contains(0.0)
        assert -1e-300 <= m.lo <= 0.0


class TestConjHolomorphicForm:
    def test_identity_n1(self):
        form = ConjHolomorphicForm(_pt(0j), 1)
        z = 1 + 1j
        h = form.value(_pt(z)).midpoint()
        assert abs(h.conjugate() - float_f(0j, z)) < 1e-12

    def test_point_agreement_n3(self):
        rng = random.Random(14)
        for _ in range(2000):
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            form = ConjHolomorphicForm(_pt(c), 3)
            h = form.value(_pt(z))
            assert h.conj().contains(float_iterate(c, z, 3))

    def test_derivative_matches_value_pair(self):
        form = ConjHolomorphicForm(_pt(0.3 - 0.2j), 3)
        z = _pt(0.1 + 0.4j)
        v, d = form.value_and_derivative(z)
        assert v.intersects(form.value(z))
        assert d.intersects(form.derivative(z))


class TestIntervalNewton:
    def test_fixed_point_of_quartic(self):
        # c=0, n=2: fixed points of z^4 include 1
        res = interval_newton_fixed(_pt(0j), 2, ComplexBox.around(1 + 0j, 0.1))
        assert res.status is NewtonStatus.CERTIFIED
        assert res.box.contains(1 + 0j)

    def test_no_fixed_point_far_away(self):
        res = interval_newton_fixed(_pt(0j), 2, ComplexBox.around(5 + 0j, 0.05))
        assert res.status is NewtonStatus.NONE

    def test_odd_iterate_fixed_point(self):
        # fixed point of f_c^1 for small real c: z = conj(z)^2 + c
        c = 0.1 + 0j
        z = float_newton_fixed(c, 1, 0.2 + 0j)
        assert z is not None
        res = interval_newton_fixed(_pt(c), 1, ComplexBox.around(z, 1e-4))
        assert res.status is NewtonStatus.CERTIFIED


class TestKrawczyk:
    def test_superattracting_two_cycle(self):
        status, boxes = krawczyk_cycle(_pt(-1 + 0j), 2, [0j, -1 + 0j], 1e-6)
        assert status is NewtonStatus.CERTIFIED
        assert boxes[0].contains(0j)
        assert boxes[1].contains(-1 + 0j)
        assert antiholo_modulus(boxes).contains(0.0)

    def test_fixed_point_at_origin(self):
        status, boxes = krawczyk_cycle(_pt(0j), 1, [0j], 1e-6)
        assert status is NewtonStatus.UNKNOWN or boxes[0].contains(0j)

    def test_attracting_fixed_point(self):
        c = 0.1 + 0.05j
        orbit, residual = float_newton_cycle(c, 1, [0.1 + 0.1j])
        assert residual < 1e-12
        status, boxes = krawczyk_cycle(_pt(c), 1, orbit, 1e-8)
        assert status is NewtonStatus.CERTIFIED
        assert boxes[0].contains(orbit[0])

    def test_certification_over_small_parameter_box(self):
        c = ComplexBox.around(0.1 + 0.05j, 1e-6)
        orbit, _ = float_newton_cycle(0.1 + 0.05j, 1, [0.1 + 0.1j])
        status, boxes = krawczyk_cycle(c, 1, orbit, 1e-6)
        assert status is NewtonStatus.CERTIFIED

    def test_absence_far_from_any_cycle(self):
        assert krawczyk_absence(_pt(0j), 1, [5 + 5j], 1e-3)

    def test_absence_refuses_genuine_cycle(self):
        orbit, _ = float_newton_cycle(0.1 + 0.05j, 1, [0.1 + 0.1j])
        assert not krawczyk_absence(_pt(0.1 + 0.05j), 1, orbit, 1e-3)

    def test_guess_length_checked(self):
        with pytest.raises(ValueError):
            krawczyk_cycle(_pt(0j), 2, [0j], 1e-6)
        with pytest.raises(ValueError):
            krawczyk_absence(_pt(0j), 2, [0j], 1e-6)


class TestFloatNewtonCycle:
    def test_two_cycle_converges(self):
        orbit, residual = float_newton_cycle(-1 + 0j, 2, [0.05 + 0.01j, -0.9 - 0.02j])
        assert residual < 1e-12
        values = sorted((round(z.real, 6), round(z.imag, 6)) for z in orbit)
        assert values == [(-1.0, 0.0), (0.0, 0.0)]


def test_omega_enclosure_is_cube_root_of_unity():
    w3 = OMEGA * OMEGA * OMEGA
    assert w3.contains(1 + 0j)
    assert w3.width() < 1e-14
