"""Conflict perception chain: each stage against hand values and oracles."""

import numpy as np
import pytest

from oracles import cosine_vec, entropy_vec, js_vec, softmax_vec

from dualpath.fusion import Model, ModelConfig
from dualpath.perception import (REPORT_COLUMNS, Perception, deviations,
                                 js_divergence, normalized_entropy)
from dualpath.rng import Rng
from dualpath.synthdata import MODALITIES
from dualpath.tensor import Tensor

SIGMOID_ONE = 0.7310585786300049


def make_private(rng, n, d_h):
    return {m: Tensor(rng.child(m).normal(size=(n, d_h))) for m in MODALITIES}


def make_perception(seed=0, d_h=6, num_classes=4, temperature=1.0):
    return Perception(Rng(seed, "perc"), d_h, num_classes, temperature)


def block(*arrays):
    """Per-modality (N, C) arrays as one (K, N, C) block tensor."""
    return Tensor(np.stack([np.asarray(a, dtype=float) for a in arrays]))


class TestDeviations:
    def test_equal_privates_have_zero_deviation(self):
        x = Tensor(np.ones((3, 4)) * 2.0)
        centroid, devs = deviations({m: x for m in MODALITIES})
        assert np.array_equal(centroid.data, x.data)
        assert np.array_equal(devs.data, np.zeros((3, 12)))

    def test_hand_case(self):
        private = {
            "text": Tensor(np.array([[3.0]])),
            "video": Tensor(np.array([[0.0]])),
            "audio": Tensor(np.array([[0.0]])),
        }
        centroid, devs = deviations(private)
        assert centroid.data[0, 0] == pytest.approx(1.0)
        assert devs.data[0] == pytest.approx([2.0, 1.0, 1.0])

    def test_translation_invariance(self):
        private = make_private(Rng(1, "p"), 4, 5)
        _, devs = deviations(private)
        shifted = {m: private[m] + Tensor(np.full((4, 5), 7.0)) for m in MODALITIES}
        _, devs2 = deviations(shifted)
        assert np.abs(devs.data - devs2.data).max() < 1e-12


class TestDifferenceVector:
    def test_zero_deviations_and_bias_give_zero(self):
        perc = make_perception()
        perc.diff_proj.bias.data[:] = 0.0
        out = perc.difference_vector(Tensor(np.zeros((2, 18))))
        assert np.array_equal(out.data, np.zeros((2, 6)))

    def test_matches_oracle(self):
        perc = make_perception(seed=2)
        devs = {m: np.abs(Rng(3, m).normal(size=(3, 6))) for m in MODALITIES}
        out = perc.difference_vector(
            Tensor(np.concatenate([devs[m] for m in MODALITIES], axis=1))).data
        for i in range(3):
            cat = np.concatenate([devs[m][i] for m in MODALITIES])
            want = np.tanh(cat @ perc.diff_proj.weight.data + perc.diff_proj.bias.data)
            assert np.abs(out[i] - want).max() < 1e-12


class TestSemanticEnergy:
    def test_diff_equal_to_prototype_scores_one(self):
        perc = make_perception(seed=4)
        diff = Tensor(np.tile(perc.prototype.data, (2, 1)))
        out = perc.semantic_energy(diff)
        assert np.allclose(out.data, 1.0, atol=1e-12)

    def test_orthogonal_diff_scores_zero(self):
        perc = make_perception(seed=5, d_h=4)
        perc.prototype.data = np.array([1.0, 0.0, 0.0, 0.0])
        diff = Tensor(np.array([[0.0, 2.0, 0.0, 0.0]]))
        assert perc.semantic_energy(diff).data[0, 0] == pytest.approx(0.0)

    def test_temperature_scales_cosine(self):
        perc = make_perception(seed=6, d_h=4, temperature=5.0)
        perc.prototype.data = np.array([1.0, 0.0, 0.0, 0.0])
        diff = Tensor(np.array([[0.4, np.sqrt(1.0 - 0.16), 0.0, 0.0]]))
        assert perc.semantic_energy(diff).data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_cosine_oracle(self):
        perc = make_perception(seed=7)
        diff = Rng(8, "d").normal(size=(5, 6))
        out = perc.semantic_energy(Tensor(diff)).data
        for i in range(5):
            assert out[i, 0] == pytest.approx(
                cosine_vec(diff[i], perc.prototype.data), abs=1e-12)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), "1", True])
    def test_temperature_must_be_a_finite_number(self, temperature):
        """NaN used to pass and make every semantic energy NaN."""
        with pytest.raises(ValueError, match="temperature"):
            make_perception(temperature=temperature)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            make_perception(temperature=0.0)
        with pytest.raises(ValueError):
            make_perception(temperature=-1.0)


class TestUnimodalPredict:
    def test_zero_weights_give_uniform(self):
        perc = make_perception(seed=9)
        perc.classifiers["text"].weight.data[:] = 0.0
        perc.classifiers["text"].bias.data[:] = 0.0
        p = perc.unimodal_predict({m: Tensor(np.ones((3, 6))) for m in MODALITIES})
        assert np.allclose(p.data[0], 0.25, atol=1e-15)

    def test_dominant_logit_wins(self):
        perc = make_perception(seed=10)
        perc.classifiers["video"].weight.data[:] = 0.0
        perc.classifiers["video"].bias.data[:] = np.array([10.0, 0.0, 0.0, 0.0])
        p = perc.unimodal_predict({m: Tensor(np.zeros((1, 6))) for m in MODALITIES}).data[1]
        assert p[0, 0] > 0.999
        assert np.abs(p[0] - np.array([1.0, 0, 0, 0])).max() < 1e-3

    def test_rows_sum_to_one(self):
        perc = make_perception(seed=11)
        x = Tensor(Rng(12, "x").normal(size=(8, 6)))
        probs = perc.unimodal_predict({m: x for m in MODALITIES}).data
        assert probs.shape == (3, 8, 4)
        for p in probs:
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
            assert (p > 0).all()


class TestJsDivergence:
    def test_identical_distributions_give_zero(self):
        p = [[0.1, 0.2, 0.3, 0.4]]
        out = js_divergence(block(p, p, p))
        assert abs(out.data[0, 0]) < 1e-15

    def test_hand_value_two_against_one(self):
        a, b = [[1.0, 0.0]], [[0.0, 1.0]]
        out = js_divergence(block(a, a, b))
        want = (2.0 * np.log(1.5) + np.log(3.0)) / 3.0
        assert out.data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_disjoint_one_hots_hit_upper_bound(self):
        probs = block([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]])
        assert js_divergence(probs).data[0, 0] == pytest.approx(np.log(3.0), abs=1e-12)

    def test_class_permutation_invariance(self):
        rng = Rng(13, "p")
        raw = {m: softmax_vec(rng.child(m).normal(size=4)) for m in MODALITIES}
        base = js_divergence(block(*(raw[m][None] for m in MODALITIES)))
        perm = rng.permutation(4)
        permuted = js_divergence(block(*(raw[m][perm][None] for m in MODALITIES)))
        assert base.data[0, 0] == pytest.approx(permuted.data[0, 0], abs=1e-12)

    def test_bounded_and_matches_oracle_on_random_triples(self):
        rng = Rng(14, "p")
        rows = []
        for m in MODALITIES:
            logits = rng.child(m).normal(size=(200, 5))
            rows.append(np.stack([softmax_vec(r) for r in logits]))
        out = js_divergence(block(*rows)).data
        assert (out >= -1e-12).all()
        assert (out <= np.log(3.0) + 1e-12).all()
        for i in range(0, 200, 17):
            want = js_vec(rows[0][i], rows[1][i], rows[2][i])
            assert out[i, 0] == pytest.approx(want, abs=1e-12)


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        p = block(np.full((2, 5), 0.2))
        assert np.allclose(normalized_entropy(p, 5).data, 1.0, atol=1e-12)

    def test_one_hot_is_zero(self):
        p = block([[0.0, 1.0, 0.0, 0.0]])
        assert normalized_entropy(p, 4).data[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_half_split_of_four_classes(self):
        p = block([[0.5, 0.5, 0.0, 0.0]])
        assert normalized_entropy(p, 4).data[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle(self):
        rng = Rng(15, "p")
        rows = np.stack([softmax_vec(rng.child("l", i).normal(size=6))
                         for i in range(20)])
        out = normalized_entropy(block(rows), 6).data
        for i in range(20):
            assert out[i, 0] == pytest.approx(entropy_vec(rows[i], 6), abs=1e-12)

    @pytest.mark.parametrize("num_classes", [2.0, "3", True])
    def test_rejects_a_class_count_that_is_no_integer(self, num_classes):
        with pytest.raises(ValueError, match="num_classes"):
            normalized_entropy(block(np.full((1, 3), 1.0 / 3.0)), num_classes)

    def test_rejects_degenerate_class_count(self):
        with pytest.raises(ValueError):
            normalized_entropy(block(np.ones((1, 1))), 1)


class TestStatisticalBias:
    def test_zero_weights_give_bias_value(self):
        perc = make_perception(seed=16)
        perc.stat_weight.data[:] = 0.0
        perc.stat_bias.data = np.asarray(0.25)
        js = Tensor(np.ones((3, 1)))
        out = perc.statistical_bias(js, Tensor(np.ones((3, 3))))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_js_only_weight_passes_js_through(self):
        perc = make_perception(seed=17)
        perc.stat_weight.data = np.array([1.0, 0.0, 0.0, 0.0])
        perc.stat_bias.data = np.asarray(0.0)
        js = Tensor(np.array([[0.5], [0.2]]))
        ents = Tensor(np.array([[0.9] * 3, [0.1] * 3]))
        out = perc.statistical_bias(js, ents)
        assert np.array_equal(out.data, js.data)

    def test_matches_dot_product_oracle(self):
        perc = make_perception(seed=18)
        js = Rng(19, "j").uniform(size=(4, 1))
        ents = {m: Rng(19, f"e/{m}").uniform(size=(4, 1)) for m in MODALITIES}
        out = perc.statistical_bias(
            Tensor(js), Tensor(np.concatenate([ents[m] for m in MODALITIES], axis=1))).data
        for i in range(4):
            stats = np.array([js[i, 0]] + [ents[m][i, 0] for m in MODALITIES])
            want = float(stats @ perc.stat_weight.data) + float(perc.stat_bias.data)
            assert out[i, 0] == pytest.approx(want, abs=1e-12)


class TestConflictVector:
    def test_zero_energy_halves_the_difference(self):
        perc = make_perception(seed=20)
        diff = Tensor(Rng(21, "d").normal(size=(3, 6)))
        zero = Tensor(np.zeros((3, 1)))
        energy, gated = perc.conflict_vector(zero, zero, diff)
        assert np.array_equal(energy.data, np.zeros((3, 1)))
        assert np.abs(gated.data - 0.5 * diff.data).max() < 1e-15

    def test_strongly_negative_energy_suppresses(self):
        perc = make_perception(seed=22)
        diff = Tensor(np.ones((1, 6)))
        energy, gated = perc.conflict_vector(
            Tensor(np.array([[-50.0]])), Tensor(np.zeros((1, 1))), diff)
        assert np.abs(gated.data).max() < 1e-15

    def test_hand_sigmoid_value(self):
        perc = make_perception(seed=23)
        diff = Tensor(np.ones((1, 4)))
        energy, gated = perc.conflict_vector(
            Tensor(np.array([[1.2]])), Tensor(np.array([[-0.2]])), diff)
        assert energy.data[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(gated.data, SIGMOID_ONE, atol=1e-12)


class TestReliabilityWeights:
    def test_zero_output_head_gives_uniform_trust(self):
        perc = make_perception(seed=24)
        perc.trust_out.weight.data[:] = 0.0
        perc.trust_out.bias.data[:] = 0.0
        gated = Tensor(Rng(25, "g").normal(size=(3, 6)))
        ents = Tensor(np.concatenate([Rng(25, m).uniform(size=(3, 1)) for m in MODALITIES], 1))
        trust = perc.reliability_weights(gated, ents)
        assert np.allclose(trust.data, 1.0 / 3.0, atol=1e-15)

    def test_bias_only_head_matches_softmax_oracle(self):
        perc = make_perception(seed=26)
        perc.trust_out.weight.data[:] = 0.0
        perc.trust_out.bias.data = np.array([2.0, 0.0, 0.0])
        gated = Tensor(np.zeros((2, 6)))
        trust = perc.reliability_weights(gated, Tensor(np.zeros((2, 3)))).data
        want = softmax_vec(np.array([2.0, 0.0, 0.0]))
        assert np.abs(trust - want).max() < 1e-12

    def test_rows_on_simplex(self):
        perc = make_perception(seed=27)
        gated = Tensor(Rng(28, "g").normal(size=(10, 6)))
        ents = Tensor(np.concatenate([Rng(28, m).uniform(size=(10, 1)) for m in MODALITIES], 1))
        trust = perc.reliability_weights(gated, ents).data
        assert np.abs(trust.sum(axis=1) - 1.0).max() < 1e-12
        assert (trust > 0).all()


class TestGatingFactor:
    def test_neutral_inputs_give_half(self):
        perc = make_perception(seed=29)
        gated = Tensor(np.zeros((2, 6)))
        js = Tensor(np.zeros((2, 1)))
        gate = perc.gating_factor(gated, js)
        assert np.allclose(gate.data, 0.5, atol=1e-15)

    def test_saturated_strength_with_silent_divergence_term(self):
        perc = make_perception(seed=30)
        perc.div_gate.weight.data[:] = 0.0
        perc.div_gate.bias.data[:] = 0.0
        gated = Tensor(np.full((1, 6), 1e6))
        gate = perc.gating_factor(gated, Tensor(np.array([[0.9]])))
        assert gate.data[0, 0] == pytest.approx(SIGMOID_ONE, abs=1e-9)

    def test_divergence_raises_the_gate(self):
        perc = make_perception(seed=31)
        gated = Tensor(np.zeros((1, 6)))
        low = perc.gating_factor(gated, Tensor(np.array([[0.0]]))).data[0, 0]
        high = perc.gating_factor(gated, Tensor(np.array([[1.0]]))).data[0, 0]
        assert high > low

    def test_monotone_in_gated_norm(self):
        perc = make_perception(seed=32)
        js = Tensor(np.zeros((1, 1)))
        gates = []
        for scale in (0.0, 0.5, 1.0, 2.0):
            gated = Tensor(np.full((1, 6), scale))
            gates.append(perc.gating_factor(gated, js).data[0, 0])
        assert all(b > a for a, b in zip(gates, gates[1:]))

    def test_always_strictly_inside_unit_interval(self):
        perc = make_perception(seed=33)
        rng = Rng(34, "g")
        for i in range(100):
            gated = Tensor(rng.child("x", i).normal(size=(1, 6)) * 100.0)
            js = Tensor(rng.child("j", i).uniform(size=(1, 1)))
            g = perc.gating_factor(gated, js).data[0, 0]
            assert 0.0 < g < 1.0


class TestFullChain:
    def test_report_shapes_and_rows(self):
        perc = make_perception(seed=35)
        report = perc(make_private(Rng(36, "f"), 7, 6))
        assert report.centroid.data.shape == (7, 6)
        assert report.diff_vector.data.shape == (7, 6)
        assert report.semantic_energy.data.shape == (7, 1)
        assert report.js_div.data.shape == (7, 1)
        assert report.trust.data.shape == (7, 3)
        assert report.gate.data.shape == (7, 1)
        rows = report.rows()
        assert rows.shape == (7, len(REPORT_COLUMNS))
        assert np.array_equal(rows[:, -1], report.gate.data[:, 0])

    def test_gated_diff_is_a_contraction(self):
        perc = make_perception(seed=37)
        report = perc(make_private(Rng(38, "f"), 20, 6))
        gated = np.linalg.norm(report.gated_diff.data, axis=1)
        full = np.linalg.norm(report.diff_vector.data, axis=1)
        live = full > 0
        assert (gated[live] < full[live]).all()

    def test_report_columns_are_the_gating_csv_header(self):
        assert REPORT_COLUMNS == (
            "semantic_energy", "js_div",
            "entropy_text", "entropy_video", "entropy_audio",
            "stat_bias", "conflict_energy",
            "trust_text", "trust_video", "trust_audio", "gate",
        )

    def test_shared_features_do_not_enter(self):
        """Perturbing the shared encoders leaves every report tensor and the
        reasoning representation bit for bit; perturbing the private ones
        moves them, so the probe is live."""
        model = Model(ModelConfig(feature_dim=5, hidden_dim=6, init_seed=39))
        rng = Rng(40, "f")
        text, video, audio = (rng.child(m).normal(size=(4, 5)) for m in MODALITIES)

        def watched():
            out = model.forward_batch(text, video, audio)
            rep = out.report
            arrays = [rep.centroid, rep.diff_vector, rep.semantic_energy, rep.js_div,
                      rep.stat_bias, rep.conflict_energy, rep.gated_diff, rep.trust,
                      rep.gate, out.reasoning_repr]
            d = model.config.hidden_dim
            return [a.data for a in arrays] + [
                block for i in range(3) for block in (
                    rep.deviations.data[:, i * d:(i + 1) * d], rep.unimodal.data[i],
                    rep.entropies.data[:, i:i + 1])]

        base = watched()
        for kind, moves in (("shared", False), ("private", True)):
            saved = model.snapshot()
            for name, p in model.params().items():
                if name.startswith(f"decoupler.{kind}_"):
                    p.data = p.data * 3.0 + 0.5
            got = watched()
            model.set_params(saved)
            same = [np.array_equal(a, b) for a, b in zip(got, base)]
            assert all(same) if not moves else not any(same), kind
