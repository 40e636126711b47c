(* Same-name fixture for the analyzer, twin of ../a/main.ml: here
   [step] is allocation-free, so the [@hot] [run] is clean. *)

let step a = if Array.length a > 0 then a.(0) else 0

let run a = step a [@@hot]

let count () =
  let a = ref 0 and b = ref 0 and c = ref 0 and d = ref 0 in
  incr a;
  incr b;
  incr c;
  incr d;
  !a + !b + !c + !d
