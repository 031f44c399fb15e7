// Legacy lint-group fixtures — float equality, process discipline,
// range-scan discipline, single-slot observer.
#include <cstdlib>
#include <functional>

inline bool atUnit(double x) {
  return x == 1.0;  // expect: float-equality
}

inline void shell() {
  std::system("true");  // expect: process-discipline
}

struct Radio {
  bool linked(int a, int b);
};

inline bool near(Radio& r) {
  return r.linked(0, 1);  // expect: rangescan-discipline
}

struct Point {
  double x, y;
};
double distanceSq(const Point& a, const Point& b);

inline bool inRange(const Point& a, const Point& b, double r) {
  return distanceSq(a, b) <= r * r;  // expect: rangescan-discipline
}

inline bool inRangeSplit(const Point& a, const Point& b, double r2) {
  return distanceSq(Point{a.x, a.y},  // expect: rangescan-discipline
                    b) < r2;
}

struct Hub {
  std::function<void(int)> frameObserver_;  // expect: observer-contract
};
