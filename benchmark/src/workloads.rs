//! The five workloads: what each one draws from the seed, which path
//! carries its end-to-end numbers, and why it exists.

use crate::api::{
    self, ChurnRecipe, ClientTrace, ShardMap, SpecRecipe, SystemSpec, TimedRequest, Traffic,
};

/// Requests per batched admission round (per shard lane when sharded).
pub const BURST_CAP: usize = 64;
/// Requests in flight between the producer and the admission thread.
pub const QUEUE_DEPTH: usize = 1024;

/// The path a workload's end-to-end numbers are measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_pipeline`: one producer thread + the admission thread.
    Pipeline,
    /// `replay_sharded` on two worker threads.
    Sharded,
    /// `FaultEngine::apply_event` over a merged churn + fault scenario.
    Fault,
    /// `TurboNet::run_cycles`.
    Turbo,
}

impl Kind {
    /// Busy threads the end-to-end path needs.
    pub fn threads(self) -> usize {
        match self {
            Kind::Pipeline | Kind::Sharded => 2,
            Kind::Fault | Kind::Turbo => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: the layers it loads and the unit
    /// of its operation.
    pub why: &'static str,
    pub kind: Kind,
    /// What `throughput_per_s` counts on this workload.
    pub rate: &'static str,
    pub spec: SpecRecipe,
    /// The client population of the serving and sharded paths.
    pub churn: ChurnRecipe,
    /// Churn and fault events of the merged fault scenario.
    pub scenario: (u32, u32),
    pub sim_cycles: u64,
}

/// Connections are dealt to clients round-robin and to the platform's
/// four applications by index, so a client count that is a multiple of
/// four gives every client a single-application pool, from which no
/// use-case switch can be drawn. 499 and 199 are not multiples.
const STEADY: ChurnRecipe = ChurnRecipe {
    clients: 499,
    events: 1600,
    target_open: 0.7,
    switch_weight: 0.004,
};

pub const MESH8_UNIFORM: SpecRecipe = SpecRecipe {
    mesh: 8,
    slots: 64,
    connections: 1000,
    traffic: Traffic::Uniform,
    load: None,
};

/// What most workloads share; each entry below names what it changes.
const BASE: Workload = Workload {
    name: "",
    why: "",
    kind: Kind::Pipeline,
    rate: "admit_ops_per_s: set-ups + tear-downs committed",
    spec: MESH8_UNIFORM,
    churn: STEADY,
    scenario: (20_000, 2_000),
    sim_cycles: 50_000,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_uniform",
        why: "8x8 mesh, 1000 uniform connections, no refusals, routes resident: hand-off, batching and \
              the engine's happy path dominate. Served: requests admitted of requests made (all).",
        ..BASE
    },
    Workload {
        name: "admit_contended",
        why: "32-slot tables, 2000 hotspot connections at 95% occupancy: refusals, detours and switch \
              roll-backs load alloc.allocate, route_cache and mask. About 7% of requests are refused.",
        spec: SpecRecipe {
            mesh: 8,
            slots: 32,
            connections: 2000,
            traffic: Traffic::Hotspot(4),
            load: Some((20, 200, 0.95)),
        },
        churn: ChurnRecipe {
            clients: 199,
            events: 4000,
            target_open: 0.95,
            switch_weight: 0.05,
        },
        ..BASE
    },
    Workload {
        name: "shard_regional",
        why: "Region-local traffic on a 2x2 sharding, replayed on 2 workers: classification, per-lane \
              planning, fan-out and cross-shard 2PC, which no other workload runs.",
        kind: Kind::Sharded,
        spec: SpecRecipe {
            traffic: Traffic::Tiles(2),
            ..MESH8_UNIFORM
        },
        ..BASE
    },
    Workload {
        name: "fault_storm",
        why: "1000 open connections under 20000 churn + 2000 fault events with spare-capacity steering: \
              recovery ladder, route eviction and candidate scoring. Served: affected grants that survive.",
        kind: Kind::Fault,
        rate: "fault_events_per_s: merged scenario events applied",
        ..BASE
    },
    Workload {
        name: "turbo_mesh16",
        why: "16x16 mesh, 10000 regional connections, 50000 simulated cycles in the turbo kernel: host \
              time per delivered flit; no admission layer runs. Served: flits within the analytical bound.",
        kind: Kind::Turbo,
        rate: "sim_flits_per_s: flits delivered, host time",
        spec: SpecRecipe {
            mesh: 16,
            slots: 64,
            connections: 10_000,
            traffic: Traffic::MegaTiles(8),
            load: None,
        },
        ..BASE
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with tenth-size streams (`--smoke`).
    pub fn smoke(mut self) -> Self {
        self.churn.events /= 10;
        self.scenario = (self.scenario.0 / 10, self.scenario.1 / 10);
        self.sim_cycles /= 10;
        self
    }
}

/// A client population's requests: the merged arrival-ordered stream,
/// whose first quarter is the untimed warm-up.
#[derive(Debug)]
pub struct Stream {
    pub requests: Vec<TimedRequest>,
    pub warmup: usize,
    pub clients: u32,
}

impl Stream {
    pub fn merge(population: Vec<ClientTrace>) -> Self {
        let clients = population.len() as u32;
        let requests = api::merge_population(population);
        Stream {
            warmup: requests.len() / 4,
            requests,
            clients,
        }
    }

    pub fn warm(&self) -> &[TimedRequest] {
        &self.requests[..self.warmup]
    }

    pub fn timed(&self) -> &[TimedRequest] {
        &self.requests[self.warmup..]
    }

    /// The timed window split back into per-client streams, each in its
    /// own order — the input of `serve_pipeline`.
    pub fn per_client(&self) -> Vec<Vec<TimedRequest>> {
        let mut streams = vec![Vec::new(); self.clients as usize];
        for r in self.timed() {
            streams[r.client as usize].push(r.clone());
        }
        streams
    }
}

/// Draws the workload's client population; grouped by home shard when
/// `map` is given.
pub fn draw_population(
    w: &Workload,
    spec: &SystemSpec,
    seed: u64,
    map: Option<&ShardMap>,
) -> Vec<ClientTrace> {
    match map {
        Some(map) => api::client_population_grouped(spec, &w.churn, seed, map),
        None => api::client_population(spec, &w.churn, seed),
    }
}
