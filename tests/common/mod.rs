//! Algorithm fixtures shared across the integration-test suites.
//!
//! Each integration test file is its own crate, so shared fixtures live in
//! this `#[path]`-free common module. Not every suite uses every fixture.
#![allow(dead_code)]

use rand::RngCore;
use stone_age_unison::model::prelude::*;

/// Moves state 0 to 1 and holds everything else: exactly the nodes in state
/// 0 change, which is the partial-batch apply shape ("every node in `old`
/// moves to `new`, nobody else changes").
pub struct Promote;

impl Algorithm for Promote {
    type State = u8;
    type Output = u8;
    fn output(&self, s: &u8) -> Option<u8> {
        Some(*s)
    }
    fn transition(&self, s: &u8, _: &Signal<u8>, _: &mut dyn RngCore) -> u8 {
        if *s == 0 {
            1
        } else {
            *s
        }
    }
    fn dense_state_space(&self) -> Option<Vec<u8>> {
        Some(vec![0, 1])
    }
    fn transition_is_deterministic(&self) -> bool {
        true
    }
}
