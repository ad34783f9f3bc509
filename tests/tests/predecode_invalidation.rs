//! The predecode fast path under adversarial conditions: chaos-style
//! code corruption must be observed by the very next fetch, and whole
//! campaigns must be event-identical with the fast path on and off.

use chaos::campaign::{self, CampaignConfig};
use chaos::inject;
use integration::asm;
use minikernel::Kernel;
use palladium::user_ext::{DlopenOptions, ExtCallError, ExtensibleApp};

/// A chaos `corrupt_code_byte` injection into an already-executed (and
/// therefore predecoded) extension: the next call must hit the corrupted
/// byte (`0xFF` is an invalid opcode → abort), and restoring the byte
/// must bring the extension back — both transitions observed by the
/// first fetch after the host write.
#[test]
fn corrupt_injection_into_executed_code_faults_next_call() {
    let mut k = Kernel::boot();
    let mut app = ExtensibleApp::new(&mut k).unwrap();
    let h = app
        .dlopen(
            &mut k,
            &asm("f:\nmov eax, 77\nret\n"),
            &DlopenOptions::new(),
        )
        .unwrap();
    let f = app.seg_dlsym(&mut k, h, "f").unwrap();
    let fn_addr = app.dlsym(h, "f").unwrap();

    // Build the extension's blocks: two successful calls.
    assert_eq!(app.call_extension(&mut k, f, 0), Ok(77));
    assert_eq!(app.call_extension(&mut k, f, 0), Ok(77));

    // Corrupt the first byte of the function body in the app's address
    // space (the injection uses the current CR3).
    k.switch_to(app.tid);
    let prev = inject::corrupt_code_byte(&mut k, fn_addr, 0xFF).expect("mapped code");
    match app.call_extension(&mut k, f, 0) {
        Err(ExtCallError::Fault { .. }) => {}
        other => panic!("stale decode served after corruption: {other:?}"),
    }

    // Restore and the extension runs again.
    k.switch_to(app.tid);
    assert_eq!(inject::corrupt_code_byte(&mut k, fn_addr, prev), Some(0xFF));
    assert_eq!(app.call_extension(&mut k, f, 0), Ok(77));
}

/// The fast path is invisible to campaign behaviour: the same seed with
/// predecode on and off produces a byte-identical event log, the same
/// outcome histogram and the same guest instruction count.
#[test]
fn campaign_events_identical_with_and_without_predecode() {
    let run = |predecode: bool| {
        campaign::run(&CampaignConfig {
            seed: 0xFA57_CAFE,
            steps: 150,
            predecode,
            ..CampaignConfig::default()
        })
    };
    let fast = run(true);
    let slow = run(false);
    assert_eq!(fast.events, slow.events);
    assert_eq!(fast.outcomes, slow.outcomes);
    assert_eq!(fast.quarantines, slow.quarantines);
    assert_eq!(fast.guest_insns, slow.guest_insns);
    assert!(fast.guest_insns > 0, "the campaign actually stepped guests");
    assert_eq!(fast.host_panics, 0);
    assert!(fast.violations.is_empty(), "{:?}", fast.violations);
}
