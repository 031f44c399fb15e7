#pragma once

// Legacy clean counterpart — guarded header, tolerance-based comparison,
// distanceSq used for ordering rather than a range test.
inline bool nearUnit(double x) {
  const double eps = 1e-9;
  return x > 1.0 - eps && x < 1.0 + eps;
}

// distanceSq that orders or scales rather than tests a range is fine.
struct Pt {
  double x, y;
};
double distanceSq(const Pt& a, const Pt& b);

inline bool fartherFrom(const Pt& a, const Pt& b, const Pt& sink) {
  return distanceSq(a, sink) > distanceSq(b, sink);
}

inline double halfSpread(const Pt& a, const Pt& b) {
  return distanceSq(a, b) * 0.5;
}
