//! The counting allocator, installed as this test binary's allocator.

use scdn_benchmark::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

// One test only: the counters are process-wide, and parallel tests
// would allocate into each other's readings.
#[test]
fn counts_calls_and_bytes_of_alloc_realloc_and_zeroed() {
    let (calls0, bytes0) = ALLOC.totals();
    let v: Vec<u8> = Vec::with_capacity(4096);
    let (calls1, bytes1) = ALLOC.totals();
    assert_eq!(calls1 - calls0, 1, "one allocation call");
    assert_eq!(bytes1 - bytes0, 4096, "its requested size");

    let mut v = std::hint::black_box(v);
    v.extend_from_slice(&[1; 4096]);
    v.push(2); // grows: a realloc, counted as one call of the new size
    let (calls2, bytes2) = ALLOC.totals();
    assert_eq!(calls2 - calls1, 1);
    assert!(bytes2 - bytes1 >= 4097);

    let z = std::hint::black_box(vec![0u64; 512]); // alloc_zeroed
    let (calls3, bytes3) = ALLOC.totals();
    assert_eq!(calls3 - calls2, 1);
    assert_eq!(bytes3 - bytes2, 4096);

    drop((v, z)); // frees are not counted
    assert_eq!(ALLOC.totals(), (calls3, bytes3));
}
