//! Whole `ServeReport`s pinned under KV pressure, so a change to the
//! serving loop's KV bookkeeping that moves any byte of a report fails
//! here first.

use tee_serve::{
    simulate, KvSpec, Request, SecurityProfile, ServeConfig, ServeReport, TraceConfig,
};
use tee_workloads::zoo::by_name;

/// Requests per pinned trace.
const REQUESTS: u32 = 64;

/// Every scalar field of `r` in declaration order, then an FNV-1a digest
/// of its `Debug` rendering, which also covers each histogram (count,
/// sum, min, max, buckets) and the `kv_pool` counters.
fn pinned_fields(r: &ServeReport) -> [u64; 9] {
    let digest = format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    [
        r.total_requests.into(),
        r.completed_requests.into(),
        r.output_tokens,
        r.makespan.as_ps(),
        r.iterations,
        r.npu_time.as_ps(),
        r.kv_transfer_time.as_ps(),
        r.kv_exposed_time.as_ps(),
        digest,
    ]
}

/// Perfbench's `serve_trace` shape: 256/48-token means at 16 req/s,
/// Poisson or in bursts of 8.
fn trace(mut cfg: TraceConfig) -> Vec<Request> {
    cfg.prompt_mean = 256;
    cfg.output_mean = 48;
    cfg.generate()
}

/// [`pinned_fields`] of GPT2-M serving each trace (Poisson, then bursty)
/// under each profile (non-secure, SGX+MGX, TensorTEE): first with a KV
/// budget for ~4 steady requests, then with one below a single prompt's
/// KV, where only the forced head request runs.
#[rustfmt::skip]
const PINNED_REPORTS: [(&str, [u64; 9]); 12] = [
    ("steady4 poisson non_secure", [64, 64, 3104, 5385208176286, 978, 5293419265753, 27921504000, 0, 380269715640339210]),
    ("steady4 poisson sgx_mgx", [64, 64, 3104, 6681581280676, 792, 4485424043956, 2106410088000, 2106410088000, 14979565893636858377]),
    ("steady4 poisson tensortee", [64, 64, 3104, 5385338857587, 978, 5293553375184, 27921504000, 0, 17054171983077999586]),
    ("steady4 bursty non_secure", [64, 64, 3104, 5485356022269, 809, 4495955585721, 134390640000, 0, 8997686430211309836]),
    ("steady4 bursty sgx_mgx", [64, 64, 3104, 7717980551296, 809, 4566908757624, 2238006208000, 2238006208000, 13727738378877225194]),
    ("steady4 bursty tensortee", [64, 64, 3104, 5485447210947, 809, 4496066520552, 134390640000, 0, 7825655671298014969]),
    ("sub_prompt poisson non_secure", [64, 64, 3104, 15417206896418, 3104, 15325417985885, 0, 0, 3600642256429171994]),
    ("sub_prompt poisson sgx_mgx", [64, 64, 3104, 15657092253013, 3104, 15567345104293, 0, 0, 12176593350841675983]),
    ("sub_prompt poisson tensortee", [64, 64, 3104, 15417629111715, 3104, 15325843629312, 0, 0, 17017831284662813524]),
    ("sub_prompt bursty non_secure", [64, 64, 3104, 15535675828441, 3104, 15325417985885, 0, 0, 14909324311244195054]),
    ("sub_prompt bursty sgx_mgx", [64, 64, 3104, 15777602946849, 3104, 15567345104293, 0, 0, 214689635717216832]),
    ("sub_prompt bursty tensortee", [64, 64, 3104, 15536101471868, 3104, 15325843629312, 0, 0, 9994616901058650890]),
];

#[test]
fn pinned_serve_reports_under_kv_pressure_are_unchanged() {
    let model = by_name("GPT2-M").expect("Table-2 model");
    let bytes_per_token = KvSpec::of(&model).bytes_per_token;
    let traces = [
        ("poisson", trace(TraceConfig::poisson(REQUESTS, 16.0, 42))),
        ("bursty", trace(TraceConfig::bursty(REQUESTS, 16.0, 8, 42))),
    ];
    let steady = ServeConfig::for_model(&model, 4, 256 + 48);
    let sub_prompt = steady.clone().with_kv_hbm_bytes(32 * bytes_per_token);
    for (_, t) in &traces {
        assert!(
            t.iter()
                .all(|r| r.prompt_tokens * bytes_per_token > sub_prompt.kv_hbm_bytes),
            "every prompt's KV exceeds the sub-prompt budget"
        );
    }
    let mut pinned = PINNED_REPORTS.iter();
    for (budget, cfg) in [("steady4", &steady), ("sub_prompt", &sub_prompt)] {
        for (arrivals, t) in &traces {
            for (name, profile) in [
                ("non_secure", SecurityProfile::non_secure()),
                ("sgx_mgx", SecurityProfile::sgx_mgx()),
                ("tensortee", SecurityProfile::tensor_tee()),
            ] {
                let case = format!("{budget} {arrivals} {name}");
                let (label, expected) = pinned.next().expect("a pinned row per case");
                assert_eq!(*label, case);
                let r = simulate(cfg, &model, &profile, t);
                assert_eq!(r.completed_requests, REQUESTS, "{case}");
                assert_eq!(pinned_fields(&r), *expected, "{case}");
            }
        }
    }
}
