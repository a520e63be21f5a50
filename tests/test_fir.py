import json

import numpy as np
import pytest

from misoid.errors import DimensionError, ParameterError
from misoid.experiment import outputs_from_regressors
from misoid.fir import FirModule, MisoSystem, RegressorBank, load_system, push_inputs, save_system


def _system(*coeff_lists):
    return MisoSystem(tuple(FirModule(np.array(c, dtype=float)) for c in coeff_lists))


class TestWindows:
    def test_shift_two_pushes(self):
        bank = RegressorBank.zeros([3])
        bank = push_inputs(bank, [1.0])
        bank = push_inputs(bank, [2.0])
        assert bank.windows[0].tolist() == [2.0, 1.0, 0.0]

    def test_order_one_window_is_latest_sample(self):
        bank = push_inputs(RegressorBank.zeros([1]), [5.0])
        assert bank.windows[0].tolist() == [5.0]

    def test_three_pushes_and_stacking(self):
        # hand-evaluated shift register: pushes 1,2,3 into order-2 window
        bank = RegressorBank.zeros([2, 1])
        for u in ([1.0, 9.0], [2.0, 8.0], [3.0, 7.0]):
            bank = push_inputs(bank, u)
        assert bank.windows[0].tolist() == [3.0, 2.0]
        assert bank.stacked().tolist() == [3.0, 2.0, 7.0]

    def test_shift_property_against_indexed_reconstruction(self):
        rng = np.random.default_rng(3)
        orders = [1, 4, 2]
        samples = rng.normal(size=(10, 3))
        bank = RegressorBank.zeros(orders)
        for t in range(10):
            bank = push_inputs(bank, samples[t])
            for i, ni in enumerate(orders):
                expected = [samples[t - lag, i] if t - lag >= 0 else 0.0
                            for lag in range(ni)]
                assert bank.windows[i].tolist() == pytest.approx(expected)

    def test_dimension_mismatch_rejected(self):
        bank = RegressorBank.zeros([2, 2])
        with pytest.raises(DimensionError):
            push_inputs(bank, [1.0])


class TestOutputs:
    def test_two_module_dot_product(self):
        system = _system([1.0], [2.0])
        phis = np.array([[3.0, 4.0], [3.0, 4.0]])
        ys = outputs_from_regressors(system, phis, [0.0, 0.05])
        assert ys.tolist() == [11.0, 11.05]

    def test_noisy_is_additive(self):
        system = _system([1.0], [2.0])
        phis = np.array([[3.0, 4.0], [3.0, 4.0]])
        ys = outputs_from_regressors(system, phis, [0.05, -0.1])
        assert ys[0] == 11.05
        assert ys[1] == pytest.approx(11.0 - 0.1)


class TestValidationAndFiles:
    def test_empty_module_rejected(self):
        with pytest.raises(ParameterError):
            FirModule(np.array([]))

    def test_non_finite_coeffs_rejected(self):
        with pytest.raises(ParameterError):
            FirModule(np.array([1.0, np.nan]))

    def test_system_file_round_trip(self, tmp_path):
        system = _system([0.5, -1.5], [2.0])
        path = tmp_path / "sys.json"
        save_system(system, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"modules"}
        back = load_system(path)
        for a, b in zip(back.modules, system.modules):
            assert a.coeffs.tolist() == b.coeffs.tolist()

    @pytest.mark.parametrize("modules", [[["1.5", "2"]], [[" 7 "]], [[True, False]], [[1.0], ["2"]]])
    def test_coefficients_must_be_json_numbers(self, tmp_path, modules):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"modules": modules}))
        with pytest.raises(ParameterError, match=f"{path}: not a valid system file.*JSON number"):
            load_system(path)

    def test_integer_coefficients_load(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"modules": [[1, -2], [3]]}')
        assert load_system(path).theta_true().tolist() == [1.0, -2.0, 3.0]

    def test_old_noise_std_key_is_ignored_and_not_saved(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"modules": [[1.0]], "noise_std": NaN}')
        system = load_system(path)
        assert system.theta_true().tolist() == [1.0]
        save_system(system, path)

        def reject(name):
            raise ValueError(f"{name} is not standard JSON")

        assert json.loads(path.read_text(), parse_constant=reject) == {"modules": [[1.0]]}

