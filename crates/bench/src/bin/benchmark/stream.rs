//! The seeded request stream. The server sees only the bytes built here.

use ocular_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest cold-start basket; sizes are uniform in `1..=MAX_BASKET`.
const MAX_BASKET: usize = 16;

/// `n` request bodies for list length `m`: warm `{"user":u}` requests
/// for users uniform over `interactions`' rows, and — with probability
/// `cold_share` — cold `{"basket":[…]}` requests carrying the first `b`
/// items of such a user's row.
pub fn bodies(
    seed: u64,
    n: usize,
    m: usize,
    cold_share: f64,
    interactions: &CsrMatrix,
) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let users = interactions.n_rows();
    (0..n)
        .map(|_| {
            let user = rng.gen_range(0..users);
            let cold = cold_share > 0.0 && rng.gen::<f64>() < cold_share;
            let row = interactions.row(user);
            if cold && !row.is_empty() {
                let b = rng.gen_range(1..MAX_BASKET + 1).min(row.len());
                let items: Vec<String> = row[..b].iter().map(|i| i.to_string()).collect();
                format!("{{\"basket\":[{}],\"m\":{m}}}", items.join(","))
            } else {
                format!("{{\"user\":{user},\"m\":{m}}}")
            }
        })
        .collect()
}

/// Frames a body as the HTTP/1.1 keep-alive request the clients send.
pub fn frame(body: &str) -> Vec<u8> {
    format!(
        "POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interactions() -> CsrMatrix {
        let pairs: Vec<(usize, usize)> = (0..50)
            .flat_map(|u| (0..(u % 7)).map(move |i| (u, (u + 3 * i) % 40)))
            .collect();
        CsrMatrix::from_pairs(50, 40, &pairs).unwrap()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let r = interactions();
        let a = bodies(11, 400, 10, 0.5, &r);
        assert_eq!(a, bodies(11, 400, 10, 0.5, &r));
        assert_ne!(a, bodies(12, 400, 10, 0.5, &r));
    }

    #[test]
    fn mix_follows_the_cold_share_and_baskets_come_from_rows() {
        let r = interactions();
        let warm_only = bodies(3, 300, 10, 0.0, &r);
        assert!(warm_only.iter().all(|b| b.starts_with("{\"user\":")));

        let mixed = bodies(3, 2000, 10, 0.5, &r);
        let cold = mixed
            .iter()
            .filter(|b| b.starts_with("{\"basket\":"))
            .count();
        // users with an empty row (1 in 7) always go warm
        assert!((700..1000).contains(&cold), "cold = {cold}");
        for body in mixed.iter().filter(|b| b.starts_with("{\"basket\":")) {
            let list = &body["{\"basket\":[".len()..body.find(']').unwrap()];
            let items: Vec<u32> = list.split(',').map(|s| s.parse().unwrap()).collect();
            assert!((1..=MAX_BASKET).contains(&items.len()));
            assert!(
                (0..r.n_rows()).any(|u| r.row(u).starts_with(&items)),
                "basket {items:?} is a row prefix"
            );
        }
    }

    #[test]
    fn frame_declares_the_body_length() {
        let raw = String::from_utf8(frame("{\"user\":1,\"m\":10}")).unwrap();
        assert!(raw.starts_with("POST /recommend HTTP/1.1\r\n"));
        assert!(raw.contains("Content-Length: 17\r\n\r\n{\"user\""));
    }
}
