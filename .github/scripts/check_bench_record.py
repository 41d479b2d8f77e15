#!/usr/bin/env python3
"""Validate a `bench-perf-v1` record written by `figures <figure> --out DIR`.

Usage: check_bench_record.py <figure> [out_dir]

Loads `<out_dir>/BENCH_<figure>.json` (default out_dir: smoke-results),
checks the common schema and the figure's own assertions, and, for figures
with a committed reference record under `results/`, prints a non-fatal
GitHub warning when a headline ratio falls more than 20% below it (CI
runners are noisy; a human reads the warning).
"""

import json
import sys


def load(out_dir, figure):
    with open(f'{out_dir}/BENCH_{figure}.json') as f:
        record = json.load(f)
    assert record['schema'] == 'bench-perf-v1', record['schema']
    assert record['figure'] == figure
    return record


def warn_if_regressed(figure, extras, keys, title):
    """Compare `extras[key]` with the committed reference for each key."""
    try:
        with open(f'results/BENCH_{figure}.json') as f:
            ref = json.load(f)['extras']
    except FileNotFoundError:
        print('no committed reference record; skipping regression check')
        return
    for key in keys:
        got, want = extras[key], ref[key]
        if got < want * 0.8:
            print(f'::warning title={title}::'
                  f'{key} = {got:.2f}x is more than 20% below '
                  f'the committed reference ({want:.2f}x)')
        else:
            print(f'{key}: {got:.2f}x vs reference {want:.2f}x ok')


def check_table3(record):
    assert record['wall_ms'] > 0
    metrics = record['metrics']['cluster']
    assert metrics['schema'] == 'sparklet-metrics-v2', metrics['schema']
    assert 'legacy' not in metrics, 'v2 has no legacy phase-counter object'
    assert metrics['counters']['shuffle.bytes'] > 0
    assert any(k.startswith('op.') and k.endswith('.ns') for k in metrics['histograms'])
    assert metrics['trace']['spans'] > 0
    print('BENCH_table3.json ok:',
          len(metrics['counters']), 'counters,',
          len(metrics['histograms']), 'histograms,',
          metrics['trace']['spans'], 'spans')


def check_vectorized(record):
    extras = record['extras']
    for path in ('row', 'fused', 'agg_row', 'agg_vec'):
        assert extras[f'{path}_ms'] > 0, path
    # The vectorized paths must actually take the kernels, and the row
    # baselines must not.
    assert record['metrics']['fused']['counters']['operator.vectorized'] > 0
    assert record['metrics']['agg_vec']['counters']['operator.vectorized'] > 0
    assert record['metrics']['row']['counters'].get('operator.vectorized', 0) == 0
    print('BENCH_vectorized.json ok: fused speedup '
          f"{extras['fused_speedup_vs_row']:.2f}x, "
          f"group-by speedup {extras['groupby_speedup']:.2f}x")
    warn_if_regressed('vectorized', extras,
                      ('fused_speedup_vs_row', 'groupby_speedup'),
                      'vectorized speedup regression')


def check_index_build(record):
    extras = record['extras']
    for key in ('partition_bulk_ms', 'partition_row_ms', 'frame_bulk_ms'):
        assert extras[key] > 0, key
    # The frame build must take the fast path — one replay, grouped bulk
    # rows, one upsert per distinct key.
    bulk = record['metrics']['bulk']['counters']
    assert bulk['index.replays'] == 1, bulk.get('index.replays')
    assert bulk['index.bulk_rows'] == extras['rows'], bulk.get('index.bulk_rows')
    assert bulk['index.upserts'] == extras['keys'], bulk.get('index.upserts')
    assert bulk['index.build_ns'] > 0
    print('BENCH_index_build.json ok: partition speedup '
          f"{extras['partition_speedup']:.2f}x")
    warn_if_regressed('index_build', extras, ('partition_speedup',),
                      'index-build speedup regression')


def check_serve(record):
    extras = record['extras']
    for key in ('serial_qps', 'qps_1', 'qps_4', 'qps_16',
                'p50_ms_16', 'p99_ms_16', 'rtt_ns'):
        assert extras[key] > 0, key
    # Every query must flow through the session/admission layer and
    # actually interleave with others on the shared pool.
    counters = record['metrics']['serve']['counters']
    assert counters['session.admitted'] > 0
    assert counters.get('session.rejected', 0) == 0
    assert counters['scheduler.interleaves'] > 0
    # Pooled drivers: queries reuse driver threads (or run on the waiting
    # client) instead of starting one thread each.
    assert counters['session.driver_spawns'] < counters['session.admitted']
    hists = record['metrics']['serve']['histograms']
    assert hists['session.queue_ns']['count'] == counters['session.admitted']
    assert hists['session.exec_ns']['count'] == counters['session.admitted']
    print('BENCH_serve.json ok: 16-client speedup '
          f"{extras['speedup_16_vs_serial']:.2f}x, "
          f"{counters['session.admitted']} sessions admitted")
    warn_if_regressed('serve', extras, ('speedup_16_vs_serial',),
                      'serve throughput regression')


def check_memory(record):
    extras = record['extras']
    for key in ('budget_bytes', 'ungoverned_peak_bytes',
                'ungoverned_qps', 'governed_qps', 'source_fetch_ns'):
        assert extras[key] > 0, key
    # The governed phase must actually live under the budget — evicting,
    # spilling, and restoring — while the ungoverned phase never touches
    # the governance machinery.
    assert extras['governed_peak_bytes'] <= extras['budget_bytes']
    governed = record['metrics']['governed']['counters']
    assert governed['memory.evictions'] > 0
    assert governed['memory.spilled_bytes'] > 0
    assert governed['memory.unspills'] > 0
    ungoverned = record['metrics']['ungoverned']['counters']
    assert ungoverned.get('memory.evictions', 0) == 0
    print('BENCH_memory.json ok: governed '
          f"{extras['governed_qps']:.1f} qps, "
          f"{governed['memory.evictions']} evictions, "
          f"{governed['memory.unspills']} unspills")


def check_ivm(record):
    extras = record['extras']
    for key in ('incremental_ms', 'recompute_ms', 'ivm_speedup',
                'base_rows', 'batch_rows', 'batches'):
        assert extras[key] > 0, key
    # The incremental arm must have taken the delta path for every timed
    # refresh; only the untimed sort-view epilogue may fall back to
    # recompute.
    counters = record['metrics']['incremental']['counters']
    assert counters['view.refreshes'] > 0
    assert counters['view.delta_rows'] > 0
    assert counters['view.fallbacks'] >= 1  # the epilogue's sort view
    print('BENCH_ivm.json ok: speedup '
          f"{extras['ivm_speedup']:.2f}x, "
          f"{counters['view.refreshes']} refreshes, "
          f"{counters['view.delta_rows']} delta rows")
    warn_if_regressed('ivm', extras, ('ivm_speedup',), 'ivm speedup regression')


CHECKS = {
    'table3': check_table3,
    'vectorized': check_vectorized,
    'index_build': check_index_build,
    'serve': check_serve,
    'memory': check_memory,
    'ivm': check_ivm,
}


def main():
    if len(sys.argv) not in (2, 3) or sys.argv[1] not in CHECKS:
        sys.exit(f'usage: {sys.argv[0]} <{"|".join(CHECKS)}> [out_dir]')
    figure = sys.argv[1]
    out_dir = sys.argv[2] if len(sys.argv) == 3 else 'smoke-results'
    CHECKS[figure](load(out_dir, figure))


if __name__ == '__main__':
    main()
