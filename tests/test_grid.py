"""Grid geometry, transforms, masks, quadrature, and field containers."""

import math

import numpy as np
import pytest
import scipy.fft

from thermoelast import ScalarField, TorusGrid, VectorField, field_norms, quadrature
from thermoelast.cli import main
from thermoelast.grid import TWO_PI, parseval_sums, spectral_l2_sq
from thermoelast.oracle import convolve_truncated

from conftest import random_scalar


class TestConstruction:
    def test_valid_2d(self):
        g = TorusGrid((8, 12))
        assert g.d == 2
        assert g.shape == (8, 12)
        assert g.n_total == 96
        assert g.length_per_axis == (TWO_PI, TWO_PI)

    def test_valid_3d_custom_lengths(self):
        g = TorusGrid((4, 6, 8), (1.0, 2.0, 3.0))
        assert g.d == 3
        assert g.measure == pytest.approx(6.0)
        assert g.cell_volume == pytest.approx(6.0 / 192)

    @pytest.mark.parametrize("n", [(8,), (8, 8, 8, 8)])
    def test_dimension_must_be_2_or_3(self, n):
        with pytest.raises(ValueError, match="dimension must be 2 or 3"):
            TorusGrid(n)

    @pytest.mark.parametrize("n", [(7, 8), (8, 2), (0, 8), (8.7, 8), (8, math.inf)])
    def test_points_even_and_at_least_4(self, n):
        with pytest.raises(ValueError, match="even and >= 4"):
            TorusGrid(n)

    def test_length_count_mismatch(self):
        with pytest.raises(ValueError, match="match n_per_axis"):
            TorusGrid((8, 8), (1.0,))

    def test_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            TorusGrid((8, 8), (1.0, -2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_length(self, bad):
        # an infinite box would give a lattice of zero wavevectors
        with pytest.raises(ValueError, match="length_per_axis must be finite"):
            TorusGrid((8, 8), (1.0, bad))

    def test_equality_ignores_derived_arrays(self):
        assert TorusGrid((8, 8)) == TorusGrid((8, 8))
        assert TorusGrid((8, 8)) != TorusGrid((8, 10))
        assert TorusGrid((8, 8)) != TorusGrid((8, 8), (1.0, 1.0))
        g, fresh = TorusGrid((4, 6, 8)), TorusGrid((4, 6, 8))
        before = hash(g)
        assert type(g.n_total) is int and g.n_total == 4 * 6 * 8
        assert g.cell_volume == fresh.cell_volume
        # reading the cached scalars changes neither equality nor hash
        assert g == fresh and hash(g) == before == hash(fresh)


class TestGeometry:
    def test_axes_spacing(self):
        g = TorusGrid((8, 8), (4.0, 2.0))
        ax0, ax1 = g.axes()
        assert ax0[0] == 0.0
        np.testing.assert_allclose(np.diff(ax0), 0.5)
        np.testing.assert_allclose(np.diff(ax1), 0.25)

    def test_meshes_broadcast(self, grid2d_small):
        m0, m1 = grid2d_small.meshes()
        assert m0.shape == (16, 1)
        assert m1.shape == (1, 16)

    def test_wavevectors_integer_on_default_box(self, grid2d_small):
        k0 = np.ravel(grid2d_small.wavevectors[0])
        assert sorted(k0) == sorted(list(range(-8, 8)))

    def test_wavevectors_scale_with_length(self):
        g = TorusGrid((8, 8), (TWO_PI, math.pi))
        assert np.max(np.abs(g.wavevectors[1])) == pytest.approx(2 * np.max(np.abs(g.wavevectors[0])))


def _full_spectrum_count(grid, mask):
    """Modes a half-spectrum mask selects in the full spectrum."""
    return int(np.sum(mask * grid.hermitian_weight))


class TestMasks:
    def test_dealias_mask_counts(self, grid2d_small):
        # m=16 keeps |index| <= 5 per axis: 11 surviving lines
        assert _full_spectrum_count(grid2d_small, grid2d_small.dealias_mask) == 11 * 11
        # the bound (m - 1) // 3 is per axis: 2, 1, 3 on (8, 6, 10)
        odd = TorusGrid((8, 6, 10))
        assert odd.dealias_band == (2, 1, 3)
        assert _full_spectrum_count(odd, odd.dealias_mask) == 5 * 3 * 7

    @pytest.mark.parametrize("n", [
        (12, 12), (18, 18), (24, 24), (48, 48), (12, 12, 12),
        # controls, where 3 divides no axis
        (16, 16), (32, 32), (10, 10, 10),
    ], ids=lambda n: "x".join(map(str, n)))
    def test_dealiased_product_is_the_truncated_convolution(self, n, rng):
        # two fields on the kept cube multiply on the grid, and the masked
        # product is the exact convolution truncated to the cube: no sum of
        # kept modes wraps back into it, also when 3 divides m
        grid = TorusGrid(n)
        band = grid.dealias_band[0]
        rows = np.ix_(*(np.arange(-band, band + 1) % m for m in n))

        def cube(values):
            return (np.fft.fftn(values) / grid.n_total)[rows]

        a, b = (random_scalar(grid, rng, band).values for _ in range(2))
        product = grid.to_physical(grid.to_spectral(a * b) * grid.dealias_mask)
        want = convolve_truncated(cube(a), cube(b), band)
        assert np.linalg.norm(cube(product) - want) <= 1e-13 * np.linalg.norm(want)

    def test_nyquist_free_mask_counts(self, grid2d_small):
        assert _full_spectrum_count(grid2d_small, grid2d_small.nyquist_free_mask) == 15 * 15
        odd = TorusGrid((8, 6, 10))
        assert _full_spectrum_count(odd, odd.nyquist_free_mask) == 7 * 5 * 9
        # exactly the Nyquist lines are dropped: index -8 on the leading
        # axis, the +8 plane on the last (half-spectrum) axis
        idx0, idx1 = grid2d_small.mode_indices
        shape = grid2d_small.spectral_shape
        dropped = ~grid2d_small.nyquist_free_mask
        assert np.all((np.broadcast_to(idx0, shape) == -8)[dropped]
                      | (np.broadcast_to(idx1, shape) == 8)[dropped])

    def test_mode_cube_mask(self, grid2d_small):
        m = grid2d_small.mode_cube_mask(3)
        assert _full_spectrum_count(grid2d_small, m) == 7 * 7
        odd = TorusGrid((8, 6, 10))
        assert _full_spectrum_count(odd, odd.mode_cube_mask(2)) == 5 * 5 * 5
        with pytest.raises(ValueError, match="band must be >= 1"):
            grid2d_small.mode_cube_mask(0)


class TestTransforms:
    def test_round_trip(self, grid2d, rng):
        vals = rng.standard_normal(grid2d.shape)
        back = grid2d.to_physical(grid2d.to_spectral(vals))
        np.testing.assert_allclose(back, vals, rtol=0, atol=1e-13)

    def test_round_trip_3d(self, grid3d, rng):
        vals = rng.standard_normal(grid3d.shape)
        back = grid3d.to_physical(grid3d.to_spectral(vals))
        np.testing.assert_allclose(back, vals, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape", [(16, 12), (8, 10, 12)])
    def test_half_spectrum_layout(self, shape, rng):
        # real fields round-trip through the half spectrum, and the Nyquist
        # mask empties the unpaired -m/2 lines and the last-axis m/2 plane
        grid = TorusGrid(shape)
        vals = rng.standard_normal((2,) + shape)
        spec = grid.to_spectral(vals)
        assert spec.shape == (2,) + shape[:-1] + (shape[-1] // 2 + 1,)
        assert spec.shape[1:] == grid.spectral_shape
        np.testing.assert_allclose(grid.to_physical(spec), vals, rtol=0, atol=1e-13)
        kept = spec * grid.nyquist_free_mask
        for ax, m in enumerate(shape[:-1]):
            assert not np.any(np.take(kept, m // 2, axis=ax + 1))
        assert not np.any(kept[..., -1])
        again = grid.to_spectral(grid.to_physical(kept))
        np.testing.assert_allclose(again, kept, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="spectral shape"):
            grid.to_physical(np.fft.fftn(vals, axes=tuple(range(-grid.d, 0))))

    @pytest.mark.parametrize(
        "grid",
        [TorusGrid((8, 12)), TorusGrid((6, 8, 10), (1.0, 2.5, 7.0)), TorusGrid((8, 8), (3.0, 3.0))],
        ids=["8x12", "6x8x10", "8x8-box3"],
    )
    def test_kernel_is_the_public_call(self, grid, rng):
        # the grid transforms call the binding behind scipy.fft.rfftn and
        # irfftn with the same arguments: same bytes, shape and dtype, on
        # every input those functions accept from callers today
        d, axes = grid.d, tuple(range(-grid.d, 0))

        def fwd(x):
            return grid.to_spectral(x), scipy.fft.rfftn(x, axes=axes)

        def inv(x):
            return grid.to_physical(x), scipy.fft.irfftn(x, s=grid.n_per_axis, axes=axes)

        def same(pair):
            got, want = pair
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

        stack = rng.standard_normal((2 * d + 2,) + grid.shape)
        spec = grid.to_spectral(stack)
        for lead in [(), (d,), (d + 1,)]:
            vals = stack[: math.prod(lead)].reshape(lead + grid.shape)
            same(fwd(vals))
            same(inv(scipy.fft.rfftn(vals, axes=axes)))
        # strided views: one slice of a stack, a leading prefix and a
        # reversed leading axis
        for x in [stack[2 * d], stack[:d], stack[::-1]]:
            same(fwd(x))
        for x in [spec[2 * d], spec[:d], spec[::-1]]:
            same(inv(x))
        # inputs the binding alone would refuse: ints, lists, big-endian
        # floats, a real spectrum
        ints = rng.integers(-5, 5, size=(d,) + grid.shape)
        for x in [ints, ints.tolist(), stack[:d].astype(">f8")]:
            same(fwd(x))
        for x in [spec[0].real.copy(), spec[:d].tolist(), spec[0].astype(">c16"),
                  rng.integers(-5, 5, size=grid.spectral_shape)]:
            same(inv(x))

    def test_grid_is_the_only_home_of_transforms(self, tmp_path, monkeypatch):
        # every transform a run, its full-battery records, diagnose and
        # decompose make goes through the grid's two methods
        def public(*args, **kwargs):
            raise AssertionError("a public scipy.fft transform was called")

        monkeypatch.setattr(scipy.fft, "rfftn", public)
        monkeypatch.setattr(scipy.fft, "irfftn", public)
        for d, scenario in [(2, "small-mixed"), (3, "lame-random")]:
            out = tmp_path / f"run{d}"
            cfg = tmp_path / f"run{d}.cfg"
            cfg.write_text(f"scenario = {scenario}\nd = {d}\nn = 8\ndt = 0.01\nt_end = 0.02\n"
                           f"out_dir = {out}\n", encoding="utf-8")
            assert main(["run", str(cfg)]) == 0
            assert main(["diagnose", str(out)]) == 0
            assert main(["decompose", str(out / "final_u.tefld")]) == 0

    def test_roundoff_scale_imaginary_is_tolerated(self, grid2d_small):
        # whole field at rounding scale, on a mode stored without its
        # conjugate partner: the inverse is real and at the same scale
        spec = np.zeros(grid2d_small.spectral_shape, dtype=complex)
        spec[1, 0] = 1e-14
        out = grid2d_small.to_physical(spec)
        assert np.all(np.abs(out) < 1e-13)


class TestQuadratureAndNorms:
    def test_integral_of_constant(self, grid2d_small):
        vals = np.full(grid2d_small.shape, 3.0)
        assert quadrature(grid2d_small, vals) == pytest.approx(3.0 * grid2d_small.measure)

    def test_integral_of_cosine_vanishes(self, grid2d):
        f = ScalarField.from_function(grid2d, lambda x, y: np.cos(x))
        assert abs(quadrature(grid2d, f.values)) < 1e-12

    def test_parseval(self, grid2d, rng):
        f = random_scalar(grid2d, rng)
        direct = quadrature(grid2d, f.values**2)
        spectral = spectral_l2_sq(grid2d, f.spectral())
        assert spectral == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [(16, 12), (8, 6, 10)])
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("weight", [None, "k_sq", "k_sq**2"])
    def test_parseval_kernel_bits(self, n, stacked, weight, rng):
        # the in-place kernel must keep the elementwise values and the
        # reduction of the plain expression bit for bit
        grid = TorusGrid(n)
        lead = (grid.d,) if stacked else ()
        spec = grid.to_spectral(rng.standard_normal(lead + grid.shape))
        w = {None: None, "k_sq": grid.k_sq, "k_sq**2": grid.k_sq**2}[weight]
        power = (spec.real**2 + spec.imag**2) * grid.hermitian_weight
        if w is not None:
            power = power * w
        want = float(np.sum(power)) * grid.cell_volume / grid.n_total
        assert spectral_l2_sq(grid, spec, w) == want

    @pytest.mark.parametrize("n", [(128, 128), (16, 16, 16)])
    @pytest.mark.parametrize("vector", [False, True])
    def test_block_sums_are_spectral_l2_sq(self, n, vector, rng):
        # each group of a block, scalar or d-vector, reduced over its
        # trailing axes is its own spectral_l2_sq bit for bit: one weight
        # per group (multiplied in place) and every weight on every group
        # (a broadcast product); at 128^2 a group spans over 8192 elements
        grid = TorusGrid(n)
        k_sq, herm = grid.k_sq, grid.hermitian_weight
        weights = [None, k_sq, k_sq * k_sq, 1.0 + k_sq]
        comps = (grid.d,) if vector else ()
        stacked = np.stack([np.broadcast_to(herm if w is None else herm * w, grid.spectral_shape)
                            for w in weights]).reshape((len(weights),) + (1,) * len(comps) + grid.spectral_shape)
        spec = grid.to_spectral(rng.standard_normal((len(weights),) + comps + grid.shape))
        assert parseval_sums(grid, spec, stacked, lead=1).tolist() == [
            spectral_l2_sq(grid, group, w) for group, w in zip(spec, weights)]
        assert parseval_sums(grid, spec, stacked[:, None], lead=2).tolist() == [
            [spectral_l2_sq(grid, group, w) for group in spec] for w in weights]

    def test_norms_of_sine(self, grid2d):
        f = ScalarField.from_function(grid2d, lambda x, y: np.sin(x))
        n = field_norms(f)
        half_measure = math.sqrt(grid2d.measure / 2.0)
        assert n["l2"] == pytest.approx(half_measure, rel=1e-12)
        # |k| = 1, so the gradient has the same L2 norm
        assert n["h1_semi"] == pytest.approx(half_measure, rel=1e-12)
        assert n["linf"] == pytest.approx(1.0, rel=1e-12)
        assert set(n) == {"l2", "h1_semi", "linf"}

    def test_vector_norms_use_pointwise_magnitude(self, grid2d):
        v = VectorField.from_functions(grid2d, [lambda x, y: np.cos(x), lambda x, y: np.sin(x)])
        n = field_norms(v)
        # |v| = 1 everywhere
        assert n["linf"] == pytest.approx(1.0, rel=1e-12)
        assert n["l2"] == pytest.approx(math.sqrt(grid2d.measure), rel=1e-12)


class TestFields:
    def test_scalar_shape_check(self, grid2d_small):
        with pytest.raises(ValueError, match="does not match grid shape"):
            ScalarField(grid2d_small, np.zeros((16, 8)))

    def test_vector_shape_check(self, grid2d_small):
        with pytest.raises(ValueError, match="does not match grid shape"):
            VectorField(grid2d_small, np.zeros((3,) + grid2d_small.shape))

    def test_from_functions_count(self, grid2d_small):
        with pytest.raises(ValueError, match="component functions"):
            VectorField.from_functions(grid2d_small, [lambda x, y: x])

    def test_component_extraction_copies(self, grid2d_small, rng):
        from conftest import random_vector
        v = random_vector(grid2d_small, rng)
        c = v.component(1)
        np.testing.assert_array_equal(c.values, v.components[1])
        c.values[0, 0] += 1.0
        assert c.values[0, 0] != v.components[1][0, 0]

    def test_copy_is_deep(self, grid2d_small, rng):
        f = random_scalar(grid2d_small, rng)
        g = f.copy()
        g.values[0, 0] += 1.0
        assert f.values[0, 0] != g.values[0, 0]

    def test_spectral_physical_round_trip(self, grid2d_small, rng):
        f = random_scalar(grid2d_small, rng)
        g = ScalarField.from_spectral(grid2d_small, f.spectral())
        np.testing.assert_allclose(g.values, f.values, atol=1e-13)
