import workloads


def _jobs(plan):
    return [(j.integrand, j.rel_tol, j.at, j.warm) for j in plan.requests], [
        (j.integrand, j.rel_tol) for j in plan.warm
    ]


def test_replay_plan_is_a_function_of_the_seed():
    assert _jobs(workloads.replay_plan(7, 6.0)) == _jobs(workloads.replay_plan(7, 6.0))
    assert _jobs(workloads.replay_plan(7, 6.0)) != _jobs(workloads.replay_plan(8, 6.0))


def test_every_seed_offers_the_same_load():
    n = round(workloads.REPLAY_RATE * 9.0)
    for seed in range(5):
        plan = workloads.replay_plan(seed, 9.0)
        assert len(plan.requests) == n
        assert len(plan.warm) == workloads.REPLAY_WARM_JOBS
        times = [j.at for j in plan.requests]
        assert times == sorted(times) and 0.0 <= times[0] and times[-1] < 9.0


def test_replays_are_of_a_distinct_warm_set_larger_than_the_lru():
    plan = workloads.replay_plan(3, 5.0)
    warm = {(j.integrand, j.rel_tol) for j in plan.warm}
    assert len(warm) == len(plan.warm) > 256  # the server's LRU
    assert [j.warm for j in plan.warm] == list(range(len(plan.warm)))
    for job in plan.requests:
        assert (job.integrand, job.rel_tol) == (
            plan.warm[job.warm].integrand, plan.warm[job.warm].rel_tol)


def test_poisson_arrivals_have_a_fixed_count():
    import random

    times = workloads.arrival_times(random.Random(3), 50.0, 4.0)
    assert len(times) == 200 and times == sorted(times)


def test_closed_loop_inputs_are_seeded_permutations():
    assert workloads.suite_order(5) == workloads.suite_order(5)
    assert sorted(workloads.suite_order(5)) == sorted(workloads.SUITE)
    calls = workloads.sweep_calls(5)
    assert calls == workloads.sweep_calls(5)
    assert len(calls) == workloads.SWEEP_CALLS
    for members, tol in calls:
        assert sorted(members) == sorted(workloads.SWEEP_MEMBERS)
        assert abs(tol / workloads.SWEEP_REL_TOL - 1.0) < 1e-6
    assert len({tol for _, tol in calls}) == len(calls)


def test_repetitions_depend_only_on_the_run_length():
    assert workloads.repetitions("solve_suite", 20.0) == 3
    assert workloads.repetitions("sweep_auto", 20.0) == 4
    assert workloads.repetitions("sweep_auto", 18.0) == 3
    assert workloads.repetitions("solve_suite", 1.0) == 1
