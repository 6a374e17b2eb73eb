type t = int

type span = int

let zero = 0

let of_ns n =
  if n < 0 then invalid_arg "Time_ns.of_ns: negative";
  n

let to_ns t = t

let span_ns n =
  if n < 0 then invalid_arg "Time_ns.span_ns: negative";
  n

let span_us us = span_ns (int_of_float (Float.round (us *. 1e3)))

let span_ms ms = span_ns (int_of_float (Float.round (ms *. 1e6)))

let span_s s = span_ns (int_of_float (Float.round (s *. 1e9)))

let span_to_ns d = d

let span_to_us d = float_of_int d /. 1e3

let span_to_ms d = float_of_int d /. 1e6

let span_zero = 0

let add t d = t + d

let diff later earlier =
  if later < earlier then invalid_arg "Time_ns.diff: negative interval";
  later - earlier

let add_span a b = a + b

let sub_span a b =
  if b > a then invalid_arg "Time_ns.sub_span: negative result";
  a - b

let scale_span k d =
  if k < 0 then invalid_arg "Time_ns.scale_span: negative factor";
  k * d

let max_span a b = if a >= b then a else b

let compare = Int.compare

let compare_span = Int.compare

let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b

let ( < ) (a : t) (b : t) = Stdlib.( < ) a b

let equal = Int.equal

let pp ppf n =
  if n < 1_000 then Format.fprintf ppf "%dns" n
  else if n < 1_000_000 then Format.fprintf ppf "%.2fus" (float_of_int n /. 1e3)
  else if n < 1_000_000_000 then
    Format.fprintf ppf "%.2fms" (float_of_int n /. 1e6)
  else Format.fprintf ppf "%.3fs" (float_of_int n /. 1e9)
