//! Network substrate for the `echoaudit` workspace.
//!
//! The paper observes the Echo ecosystem from two network vantage points:
//!
//! * a **RPi bridged-AP router** running `tcpdump`, which sees every flow the
//!   commercial Echo produces but only as *encrypted* traffic — endpoints,
//!   DNS lookups, timing and sizes;
//! * an instrumented **AVS Echo** (the AVS Device SDK on a RPi), which logs
//!   every payload *before* encryption — full data types — but, being
//!   uncertified, only ever talks to Amazon and cannot run streaming skills.
//!
//! This crate models everything both vantage points operate on: validated
//! [`Domain`] names with eTLD+1 extraction, a deterministic [`DnsTable`],
//! typed [`Packet`]s whose payloads are either opaque ([`Payload::Encrypted`])
//! or structured ([`Payload::Plain`]), the two taps ([`RouterTap`],
//! [`AvsTap`]), a domain→organization map ([`OrgMap`]) equivalent to the
//! paper's DuckDuckGo-entity + Crunchbase + WHOIS resolution, and a
//! Pi-hole-style [`FilterList`] for advertising & tracking classification.

#![forbid(unsafe_code)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod capture;
pub mod dns;
pub mod domain;
pub mod filterlist;
pub mod firewall;
pub mod flowstats;
pub mod orgmap;
pub mod packet;
pub mod trace;

pub use capture::{AvsTap, Capture, FlowRecord, RouterTap, TapStats};
pub use dns::DnsTable;
pub use domain::Domain;
pub use filterlist::{FilterList, TrafficPurpose};
pub use firewall::{Firewall, FirewallStats, Verdict};
pub use flowstats::{aggregate as aggregate_flows, FlowStats};
pub use orgmap::{OrgClass, OrgMap};
pub use packet::{DataType, Direction, Packet, Payload, Record};
pub use trace::{read_trace, write_trace, TraceError};
