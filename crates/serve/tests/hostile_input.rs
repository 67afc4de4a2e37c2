//! Hostile inline input over a live loopback server: an inline LP the
//! solver cannot run (no constraints, non-finite coefficients, zero
//! dimensions) gets a typed error reply instead of panicking a worker or
//! a connection thread, and a request for the out-of-core `huge` budget
//! is refused before any shard materializes its instance. Afterwards the server keeps serving, its
//! counters still balance, and `NetServer::shutdown` returns.
//!
//! Every wait here is bounded, so a regression fails these tests
//! instead of hanging the suite: the client reads time out, the server
//! is never dropped on the failure path (its `Drop` joins handler
//! threads that a hung solve would park forever), and shutdown runs on
//! a helper thread with a deadline.

use std::mem::ManuallyDrop;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

use llp_core::instances::lp::LpProblem;
use llp_geom::Halfspace;
use llp_serve::codec::ErrorCode;
use llp_serve::{ClientError, NetClient, NetServer, ServeConfig};
use llp_service::{Model, RequestInput, ServiceConfig, SolveRequest};
use llp_workloads::scenario::RunBudget;

/// Bound on every reply and on shutdown.
const DEADLINE: Duration = Duration::from_secs(20);

/// A two-shard server that is never dropped implicitly; see the module
/// docs. Release it with [`shutdown_within_deadline`].
fn server() -> ManuallyDrop<NetServer> {
    let cfg = ServeConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    };
    ManuallyDrop::new(NetServer::bind("127.0.0.1:0", cfg).expect("bind loopback server"))
}

fn connect(addr: SocketAddr) -> NetClient {
    let mut client = NetClient::connect(addr).expect("connect to loopback server");
    client
        .stream()
        .set_read_timeout(Some(DEADLINE))
        .expect("set read timeout");
    client
}

fn inline(objective: Vec<f64>, cs: Vec<Halfspace>, seed: u64) -> SolveRequest {
    SolveRequest {
        // Field-wise: `LpProblem::new` refuses an empty objective, and
        // these requests are malformed on purpose.
        input: RequestInput::InlineLp(
            LpProblem {
                objective,
                ..LpProblem::new(vec![1.0])
            },
            cs,
        ),
        model: Model::Coordinator,
        budget: RunBudget::Quick,
        seed,
    }
}

fn expect_error(client: &mut NetClient, req: &SolveRequest, want: ErrorCode) {
    match client.solve(req) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, want, "server said: {message}")
        }
        other => panic!("expected a {want:?} error frame, got {other:?}"),
    }
}

/// The server still answers a valid request on `client`.
fn still_serves(client: &mut NetClient, seed: u64) {
    let valid = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, seed);
    let resp = client.solve(&valid).expect("server must keep serving");
    assert!(resp.body.is_ok());
}

/// Every stats row conserves `completed + shed + rejected == submitted`;
/// returns the fleet's `(submitted, rejected)`.
fn balanced_counters(client: &mut NetClient) -> (u64, u64) {
    let reply = client.stats().expect("stats over the wire");
    for row in &reply.rows {
        let s = &row.stats;
        assert_eq!(
            s.completed + s.shed + s.rejected,
            s.submitted,
            "shard {} conservation",
            row.shard
        );
    }
    let fleet = &reply.rows.last().expect("fleet row").stats;
    (fleet.submitted, fleet.rejected)
}

fn shutdown_within_deadline(server: ManuallyDrop<NetServer>) {
    let mut server = ManuallyDrop::into_inner(server);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(DEADLINE)
        .expect("NetServer::shutdown must return");
    handle.join().expect("shutdown thread panicked");
}

#[test]
fn inline_lp_without_constraints_is_rejected_and_the_connection_stays_open() {
    let server = server();
    let addr = server.local_addr();
    let mut client = connect(addr);

    expect_error(
        &mut client,
        &inline(vec![1.0, -1.0], Vec::new(), 1),
        ErrorCode::Rejected,
    );
    // Rejected is an application error: the same connection goes on,
    // and so does every other client.
    still_serves(&mut client, 2);
    let mut other = connect(addr);
    still_serves(&mut other, 3);

    let (submitted, rejected) = balanced_counters(&mut other);
    assert_eq!((submitted, rejected), (3, 1));
    shutdown_within_deadline(server);
}

#[test]
fn non_finite_or_zero_dimensional_inline_lps_are_malformed_not_a_panic() {
    let server = server();
    let addr = server.local_addr();

    let mut nan_row = Halfspace::new(vec![1.0, 1.0], 1.0);
    nan_row.a[1] = f64::NAN;
    let mut infinite_rhs = Halfspace::new(vec![1.0, 1.0], 1.0);
    infinite_rhs.b = f64::INFINITY;
    let bad = [
        inline(vec![1.0, 1.0], vec![nan_row], 1),
        inline(vec![1.0, 1.0], vec![infinite_rhs], 2),
        inline(
            vec![f64::NEG_INFINITY, 1.0],
            vec![Halfspace::new(vec![1.0, 1.0], 1.0)],
            3,
        ),
        inline(Vec::new(), Vec::new(), 4),
    ];
    for req in &bad {
        // Malformed closes the connection, so each probe gets its own.
        expect_error(&mut connect(addr), req, ErrorCode::Malformed);
    }

    let mut client = connect(addr);
    still_serves(&mut client, 5);
    // Undecodable frames never reach admission: only the valid solve
    // was submitted.
    assert_eq!(balanced_counters(&mut client), (1, 0));
    shutdown_within_deadline(server);
}

#[test]
fn huge_budget_is_rejected_at_the_network_boundary_and_the_connection_stays_open() {
    let server = server();
    let addr = server.local_addr();
    let mut client = connect(addr);

    // A ~40-byte frame naming the out-of-core tier: admitted, it would
    // materialize a 10^8-row instance. Inline LPs under that budget are
    // refused alike.
    let huge_scenario = SolveRequest::scenario("lp_uniform", Model::Streaming, RunBudget::Huge, 1);
    expect_error(&mut client, &huge_scenario, ErrorCode::Rejected);
    let mut huge_inline = inline(
        vec![1.0, 1.0],
        vec![Halfspace::new(vec![-1.0, -1.0], 1.0)],
        2,
    );
    huge_inline.budget = RunBudget::Huge;
    expect_error(&mut client, &huge_inline, ErrorCode::Rejected);

    still_serves(&mut client, 3);
    assert_eq!(balanced_counters(&mut client), (3, 2));
    shutdown_within_deadline(server);
}
