//! Seeded workload inputs. The same `--seed` always yields the same
//! requests, fleet seeds and standby vectors, in both `bench_e2e` and
//! `bench_layers`.

use std::fmt::Write as _;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Surface hits and memo-cache hits: the model never runs after
    /// warm-up, so the HTTP/JSON/service shell carries the whole cost.
    ServeWarm,
    /// Every degrade request is a fresh key (plus rare 64-point sweeps and
    /// streamed 10k fleets): the same shell, dominated by model evaluation,
    /// with the memo cache evicting at its cap.
    ServeCold,
    /// Repeated 4M-sample `relia fleet` runs: the batch kernel, fleet
    /// accumulators, jobs pool and checkpoint records, no server.
    FleetCli,
    /// Repeated ISCAS85 `relia sweep` runs: the paper's own flow (signal
    /// probabilities, per-gate ΔVth through the memo cache, STA, leakage).
    CircuitSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::FleetCli,
        Workload::CircuitSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
            Workload::FleetCli => "fleet-cli",
            Workload::CircuitSweep => "circuit-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Salt separating the workloads' random streams under one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::ServeWarm => 0x5741_524d,
            Workload::ServeCold => 0x434f_4c44,
            Workload::FleetCli => 0x464c_4545,
            Workload::CircuitSweep => 0x5357_4550,
        }
    }
}

/// SplitMix64: tiny, seedable, and identical in both benchmark binaries.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `workload` under `seed`: one per independent
    /// input sequence (the timed load, the cache fill, a circuit's vectors).
    pub fn new(workload: Workload, seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ workload.salt().rotate_left(17));
        rng.0 ^= rng
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One `/v1/degrade` query, rendered as the JSON body the server parses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePoint {
    pub ras: (f64, f64),
    /// Standby temperature in millikelvin (exact decimal rendering).
    pub t_standby_mk: u64,
    pub lifetime_s: f64,
    pub p_active: f64,
    pub p_standby: f64,
}

impl DegradePoint {
    pub fn t_standby_k(&self) -> f64 {
        self.t_standby_mk as f64 / 1000.0
    }

    /// Appends the JSON body to `out`.
    pub fn write_body(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"ras\":[{},{}],\"t_standby_k\":{}.{:03},\"lifetime_s\":{},\
             \"p_active\":{},\"p_standby\":{}}}",
            self.ras.0,
            self.ras.1,
            self.t_standby_mk / 1000,
            self.t_standby_mk % 1000,
            self.lifetime_s,
            self.p_active,
            self.p_standby
        );
    }

    pub fn body(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_body(&mut out);
        out
    }
}

/// The surface artifact's domain (`relia surface build` defaults) is
/// T_standby 310–410 K, RAS fraction 0.05–0.95, lifetime 1e6–1e10 s at the
/// (0.5, 1.0) stress pair; warm points stay strictly inside it.
pub fn surface_point(rng: &mut Rng) -> DegradePoint {
    let frac = rng.range(0.06, 0.94);
    DegradePoint {
        ras: (frac, 1.0 - frac),
        t_standby_mk: 311_000 + rng.below(98_000),
        lifetime_s: 10f64.powf(rng.range(6.05, 9.95)),
        p_active: 0.5,
        p_standby: 1.0,
    }
}

/// A fresh key: T_standby on a 1 mK lattice over 310–410 K, RAS fraction
/// in 0.05–0.95, lifetime log-uniform over 1e6–1e10 s, p_active in 0–1.
pub fn cold_point(rng: &mut Rng) -> DegradePoint {
    let frac = rng.range(0.05, 0.95);
    DegradePoint {
        ras: (frac, 1.0 - frac),
        t_standby_mk: 310_000 + rng.below(100_001),
        lifetime_s: 10f64.powf(rng.range(6.0, 10.0)),
        p_active: rng.unit(),
        p_standby: 1.0,
    }
}

/// Number of fixed memo keys in `serve-warm`.
pub const MEMO_KEYS: usize = 36;

/// Fixed key `i` of the memo set: three RAS splits x six standby
/// temperatures x p_active ∈ {0.3, 0.6}. Those stress pairs are not in the
/// surface artifact, so these queries miss the surface and are answered
/// from the memo cache.
pub fn memo_point(i: usize) -> DegradePoint {
    const RAS: [(f64, f64); 3] = [(1.0, 9.0), (2.0, 8.0), (5.0, 5.0)];
    const T_MK: [u64; 6] = [320_000, 335_000, 350_000, 365_000, 380_000, 395_000];
    const P: [f64; 2] = [0.3, 0.6];
    DegradePoint {
        ras: RAS[(i / 12) % 3],
        t_standby_mk: T_MK[(i / 2) % 6],
        lifetime_s: 1.0e8,
        p_active: P[i % 2],
        p_standby: 1.0,
    }
}

/// The exact answer bodies for [`memo_point`]`(i)`, computed from the
/// library (`NoCache` evaluation + `degrade_body`); `bench_layers` re-checks
/// them against the library it links.
pub const MEMO_GOLDENS: [&str; MEMO_KEYS] = [
    "{\"delta_vth_v\":0.01949508514298684,\"delay_degradation\":0.03249180857164473}",
    "{\"delta_vth_v\":0.020873811828958897,\"delay_degradation\":0.03478968638159816}",
    "{\"delta_vth_v\":0.021704619510059715,\"delay_degradation\":0.036174365850099525}",
    "{\"delta_vth_v\":0.02285049795524175,\"delay_degradation\":0.03808416325873625}",
    "{\"delta_vth_v\":0.02411251033242948,\"delay_degradation\":0.0401875172207158}",
    "{\"delta_vth_v\":0.025073263953495673,\"delay_degradation\":0.041788773255826125}",
    "{\"delta_vth_v\":0.026661317771069597,\"delay_degradation\":0.044435529618449335}",
    "{\"delta_vth_v\":0.027477489271869843,\"delay_degradation\":0.0457958154531164}",
    "{\"delta_vth_v\":0.02930668867703544,\"delay_degradation\":0.0488444811283924}",
    "{\"delta_vth_v\":0.03001007852213955,\"delay_degradation\":0.05001679753689924}",
    "{\"delta_vth_v\":0.032015721237736564,\"delay_degradation\":0.05335953539622761}",
    "{\"delta_vth_v\":0.03263046282472016,\"delay_degradation\":0.054384104707866934}",
    "{\"delta_vth_v\":0.019857764971165516,\"delay_degradation\":0.03309627495194253}",
    "{\"delta_vth_v\":0.022012878592811914,\"delay_degradation\":0.03668813098801986}",
    "{\"delta_vth_v\":0.021658685821394345,\"delay_degradation\":0.03609780970232391}",
    "{\"delta_vth_v\":0.023506270325495654,\"delay_degradation\":0.03917711720915942}",
    "{\"delta_vth_v\":0.023721113260795304,\"delay_degradation\":0.039535188767992176}",
    "{\"delta_vth_v\":0.025296611471346736,\"delay_degradation\":0.04216101911891123}",
    "{\"delta_vth_v\":0.02598694603625564,\"delay_degradation\":0.04331157672709274}",
    "{\"delta_vth_v\":0.02733402535980694,\"delay_degradation\":0.04555670893301156}",
    "{\"delta_vth_v\":0.02840318020539896,\"delay_degradation\":0.04733863367566493}",
    "{\"delta_vth_v\":0.029563812075040125,\"delay_degradation\":0.04927302012506688}",
    "{\"delta_vth_v\":0.03092581911724756,\"delay_degradation\":0.05154303186207926}",
    "{\"delta_vth_v\":0.03193596724888352,\"delay_degradation\":0.05322661208147254}",
    "{\"delta_vth_v\":0.021172875266305468,\"delay_degradation\":0.035288125443842445}",
    "{\"delta_vth_v\":0.02480269769021057,\"delay_degradation\":0.04133782948368428}",
    "{\"delta_vth_v\":0.02209670007529642,\"delay_degradation\":0.03682783345882736}",
    "{\"delta_vth_v\":0.025463859817253867,\"delay_degradation\":0.04243976636208978}",
    "{\"delta_vth_v\":0.023274784267431278,\"delay_degradation\":0.03879130711238546}",
    "{\"delta_vth_v\":0.026345789263139033,\"delay_degradation\":0.04390964877189839}",
    "{\"delta_vth_v\":0.024696180153145345,\"delay_degradation\":0.04116030025524224}",
    "{\"delta_vth_v\":0.02745975794044441,\"delay_degradation\":0.04576626323407402}",
    "{\"delta_vth_v\":0.026334668817203158,\"delay_degradation\":0.043891114695338594}",
    "{\"delta_vth_v\":0.028800124793920443,\"delay_degradation\":0.048000207989867406}",
    "{\"delta_vth_v\":0.028156067322320656,\"delay_degradation\":0.046926778870534425}",
    "{\"delta_vth_v\":0.030347056582945738,\"delay_degradation\":0.0505784276382429}",
];

/// Points in one `serve-cold` inline sweep (4 RAS x 4 T x 4 lifetimes).
pub const SWEEP_POINTS: usize = 64;

/// A `/v1/sweep` body of [`SWEEP_POINTS`] fresh model points.
pub fn sweep_body(rng: &mut Rng) -> String {
    let list = |rng: &mut Rng, f: &dyn Fn(&mut Rng) -> String| {
        (0..4).map(|_| f(rng)).collect::<Vec<_>>().join(",")
    };
    let ras = list(rng, &|r| {
        let frac = r.range(0.05, 0.95);
        format!("[{},{}]", frac, 1.0 - frac)
    });
    let temps = list(rng, &|r| {
        let mk = 310_000 + r.below(100_001);
        format!("{}.{:03}", mk / 1000, mk % 1000)
    });
    let lifetimes = list(rng, &|r| format!("{}", 10f64.powf(r.range(6.0, 10.0))));
    format!(
        "{{\"workload\":{{\"kind\":\"model\",\"p_active\":{},\"p_standby\":1}},\
         \"ras\":[{ras}],\"t_standby_k\":[{temps}],\"lifetime_s\":[{lifetimes}]}}",
        rng.unit()
    )
}

/// Devices in one `serve-cold` streamed fleet request.
pub const FLEET_HTTP_SAMPLES: u64 = 10_000;

/// A `/v1/fleet` body of [`FLEET_HTTP_SAMPLES`] devices with a fresh seed.
pub fn fleet_body(rng: &mut Rng) -> String {
    format!(
        "{{\"ras\":[1,9],\"t_standby_k\":330,\"p_active\":0.5,\"p_standby\":1,\
         \"times_s\":[31560000,100000000],\"samples\":{FLEET_HTTP_SAMPLES},\"seed\":{}}}",
        rng.below(1 << 32)
    )
}

/// Devices per `relia fleet` run in `fleet-cli`.
pub const FLEET_CLI_SAMPLES: u64 = 4_000_000;

/// The eight fleet seeds `fleet-cli` cycles through.
pub fn fleet_seeds(seed: u64) -> [u64; 8] {
    let mut rng = Rng::new(Workload::FleetCli, seed, 0);
    std::array::from_fn(|_| rng.below(1 << 48))
}

/// The ISCAS85 circuits `circuit-sweep` cycles through. c3540, c5315,
/// c6288 and c7552 are left out: every aging job on them currently fails
/// with `active_stress_prob = 1.0000000000000002`.
pub const SWEEP_CIRCUITS: [&str; 4] = ["c880", "c1355", "c1908", "c2670"];

/// Jobs in one `circuit-sweep` run: 2 RAS x 2 T_standby x 2 lifetimes x
/// 4 standby policies (worst, best, V1, V2).
pub const SWEEP_JOBS: u64 = 32;

/// The two seeded standby vectors (V1, V2) of `SWEEP_CIRCUITS[circuit]`,
/// as bit strings of the circuit's primary-input width.
pub fn standby_vectors(seed: u64, circuit: usize, width: usize) -> [String; 2] {
    let mut rng = Rng::new(Workload::CircuitSweep, seed, circuit as u64);
    std::array::from_fn(|_| {
        (0..width)
            .map(|_| if rng.below(2) == 1 { '1' } else { '0' })
            .collect()
    })
}

/// The grid flags of one `circuit-sweep` run after the circuit name.
pub fn sweep_grid_flags(vectors: &[String; 2]) -> Vec<String> {
    [
        "--ras",
        "1:5,1:9",
        "--tstandby",
        "330,400",
        "--years",
        "1,10",
        "--standby",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([format!("worst,best,{},{}", vectors[0], vectors[1])])
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map(|_| Rng::new(Workload::ServeCold, 1, 0).next_u64())
            .collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same stream");
        let mut s0 = Rng::new(Workload::ServeCold, 1, 0);
        let mut s1 = Rng::new(Workload::ServeCold, 1, 1);
        let mut other = Rng::new(Workload::ServeCold, 2, 0);
        let first = s0.next_u64();
        assert_ne!(first, s1.next_u64());
        assert_ne!(first, other.next_u64());
    }

    #[test]
    fn bodies_render_exact_decimals() {
        assert_eq!(
            memo_point(0).body(),
            "{\"ras\":[1,9],\"t_standby_k\":320.000,\"lifetime_s\":100000000,\
             \"p_active\":0.3,\"p_standby\":1}"
        );
        let p = memo_point(35);
        assert_eq!(
            (p.ras, p.t_standby_mk, p.p_active),
            ((5.0, 5.0), 395_000, 0.6)
        );
        let mut rng = Rng::new(Workload::ServeWarm, 7, 0);
        for _ in 0..1000 {
            let p = surface_point(&mut rng);
            assert!((311.0..409.0).contains(&p.t_standby_k()));
            assert!((1.1e6..0.9e10).contains(&p.lifetime_s));
        }
    }

    #[test]
    fn sweep_body_has_sixty_four_points() {
        let body = sweep_body(&mut Rng::new(Workload::ServeCold, 3, 0));
        let values = |key: &str| -> usize {
            let rest = body.split(key).nth(1).expect("key present");
            rest[..rest.find(']').expect("list end")].split(',').count()
        };
        assert_eq!(values("\"t_standby_k\":["), 4, "{body}");
        assert_eq!(values("\"lifetime_s\":["), 4, "{body}");
        assert_eq!(body.matches("],[").count(), 3, "four RAS pairs: {body}");
    }

    #[test]
    fn standby_vectors_have_the_circuit_width() {
        let [v1, v2] = standby_vectors(9, 3, 233);
        assert_eq!((v1.len(), v2.len()), (233, 233));
        assert_ne!(v1, v2);
        assert!(v1.chars().all(|c| c == '0' || c == '1'));
        assert_eq!(standby_vectors(9, 3, 233), [v1, v2]);
    }
}
