//! The function code of a Coprocessor Request Block (CRB).
//!
//! A real CRB is a 128-byte cache line naming the function code, source
//! and target DDE (data descriptor entry) lists and the CSB address. The
//! simulator prices a job from its function, its size and its corpus
//! class ([`crate::workload::Request`]), so the function code is the one
//! CRB field it models.

/// The accelerator function requested by a CRB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// DEFLATE compression (gzip engine).
    Compress,
    /// DEFLATE decompression (gzip engine).
    Decompress,
    /// 842 compression (memory-compression engine, POWER9 only).
    Compress842,
    /// 842 decompression.
    Decompress842,
}
