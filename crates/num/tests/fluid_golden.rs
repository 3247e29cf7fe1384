//! Bit-identity regression tests for the fluid solvers.
//!
//! The scratch-buffer refactor (double-buffered prices, reusable max-min
//! workspace, in-place rate vectors) must not change a single bit of any
//! solver's output. The golden values below were captured from the
//! pre-refactor implementation (per-iteration `Vec` clones) after 50
//! iterations on the parking-lot network; the refactored solvers must still
//! reproduce them exactly through the allocation-free `step_in_place()`.

use numfabric_num::fluid::{DgdFluid, FluidAlgorithm, RcpStarFluid, XwiFluid};
use numfabric_num::utility::LogUtility;
use numfabric_num::FluidNetwork;

fn parking_lot(cap: f64) -> FluidNetwork {
    let mut net = FluidNetwork::new();
    let l0 = net.add_link(cap);
    let l1 = net.add_link(cap);
    net.add_simple_flow(vec![l0, l1], LogUtility::new());
    net.add_simple_flow(vec![l0], LogUtility::new());
    net.add_simple_flow(vec![l1], LogUtility::new());
    net
}

const XWI_RATES: [u64; 3] = [
    4599676419421066581,
    4604180019048437077,
    4604180019048437077,
];
const XWI_PRICES: [u64; 2] = [4609434218613702650, 4609434218613702650];
const DGD_RATES: [u64; 3] = [
    4603419386487290217,
    4607922986114660713,
    4607922986114660713,
];
const DGD_PRICES: [u64; 2] = [4605977699081395754, 4605977699081395754];
const RCP_RATES: [u64; 3] = [
    4599676419421066577,
    4604180019048437073,
    4604180019048437073,
];
const RCP_PRICES: [u64; 2] = [4604180019048437076, 4604180019048437076];

fn assert_bits(name: &str, got: &[f64], want: &[u64]) {
    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        bits, want,
        "{name} diverged from the pre-refactor golden run"
    );
}

#[test]
fn solvers_match_pre_refactor_golden_bits_via_step_in_place() {
    let net = parking_lot(1.0);
    let mut xwi = XwiFluid::with_defaults(net.clone());
    let mut dgd = DgdFluid::with_defaults(net.clone());
    let mut rcp = RcpStarFluid::with_defaults(net);
    for _ in 0..50 {
        xwi.step_in_place();
        dgd.step_in_place();
        rcp.step_in_place();
    }
    assert_bits("xWI rates", FluidAlgorithm::rates(&xwi), &XWI_RATES);
    assert_bits("xWI prices", FluidAlgorithm::prices(&xwi), &XWI_PRICES);
    assert_bits("DGD rates", dgd.rates(), &DGD_RATES);
    assert_bits("DGD prices", FluidAlgorithm::prices(&dgd), &DGD_PRICES);
    assert_bits("RCP* rates", rcp.rates(), &RCP_RATES);
    assert_bits("RCP* shares", FluidAlgorithm::prices(&rcp), &RCP_PRICES);
}
