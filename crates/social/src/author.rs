//! Authors and their institutions.
//!
//! Institutions carry coarse geographic coordinates so the network substrate
//! (`scdn-net`) can derive latency from distance and the metrics layer can
//! report the paper's "ratio of scarce to abundant resource locations".

/// Dense author identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AuthorId(pub u32);

impl AuthorId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AuthorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Dense institution identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstitutionId(pub u32);

impl InstitutionId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Coarse world region, used for geographic distribution metrics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Asia.
    Asia,
    /// Africa.
    Africa,
    /// Oceania.
    Oceania,
}

impl Region {
    /// All regions, in a stable order.
    pub const ALL: [Region; 6] = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::Asia,
        Region::Africa,
        Region::Oceania,
    ];

    /// Representative (latitude, longitude) of the region's centroid, used
    /// by the generator to scatter institutions.
    pub fn centroid(self) -> (f64, f64) {
        match self {
            Region::NorthAmerica => (45.0, -100.0),
            Region::SouthAmerica => (-15.0, -60.0),
            Region::Europe => (50.0, 10.0),
            Region::Asia => (35.0, 105.0),
            Region::Africa => (0.0, 20.0),
            Region::Oceania => (-25.0, 135.0),
        }
    }

    /// Stable short code (used by the text corpus format).
    pub fn code(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NA",
            Region::SouthAmerica => "SA",
            Region::Europe => "EU",
            Region::Asia => "AS",
            Region::Africa => "AF",
            Region::Oceania => "OC",
        }
    }

    /// Parse a [`Region::code`].
    pub fn from_code(code: &str) -> Option<Region> {
        Region::ALL.into_iter().find(|r| r.code() == code)
    }
}

/// A research institution with a location.
#[derive(Clone, Debug, PartialEq)]
pub struct Institution {
    /// Identifier (index into the corpus institution table).
    pub id: InstitutionId,
    /// Human-readable name.
    pub name: String,
    /// Region the institution lies in.
    pub region: Region,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// A researcher.
#[derive(Clone, Debug, PartialEq)]
pub struct Author {
    /// Identifier (index into the corpus author table).
    pub id: AuthorId,
    /// Display name.
    pub name: String,
    /// Home institution.
    pub institution: InstitutionId,
}

/// Great-circle distance between two (lat, lon) points in kilometres
/// (haversine formula, mean Earth radius).
pub fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    const R: f64 = 6371.0;
    let (lat1, lon1) = (a.0.to_radians(), a.1.to_radians());
    let (lat2, lon2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_codes_round_trip() {
        for r in Region::ALL {
            assert_eq!(Region::from_code(r.code()), Some(r));
        }
        assert_eq!(Region::from_code("XX"), None);
    }

    #[test]
    fn haversine_zero_for_same_point() {
        assert!(haversine_km((50.0, 10.0), (50.0, 10.0)) < 1e-9);
    }

    #[test]
    fn haversine_known_distance() {
        // Chicago (41.88, -87.63) to Karlsruhe (49.01, 8.40) ≈ 7050 km.
        let d = haversine_km((41.88, -87.63), (49.01, 8.40));
        assert!((6900.0..7300.0).contains(&d), "d = {d}");
    }

    #[test]
    fn haversine_symmetric() {
        let a = (12.3, 45.6);
        let b = (-33.0, 151.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }
}
