//! The CPU-feature key benchmark records carry.
//!
//! [`cpu_key`] names the coarse vector capability of the host, so two
//! bench records taken on differently capable machines are never
//! compared as like with like. The benchmark's provenance
//! (`perfbench/src/provenance.rs`) reads it by this path.

/// The coarse vector capability of this CPU — the widest x86 vector
/// extension it reports, not the full CPUID dump — as a stable key such
/// as `x86_64-avx2-fma`.
pub fn cpu_key() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "x86_64-avx512f".to_string();
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "x86_64-avx2-fma".to_string();
        }
        "x86_64-baseline".to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        format!("{}-baseline", std::env::consts::ARCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_key_is_stable_and_nonempty() {
        let k = cpu_key();
        assert!(!k.is_empty());
        assert_eq!(k, cpu_key());
    }
}
