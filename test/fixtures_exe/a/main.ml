(* Same-name fixture for the analyzer: dune calls the main module of
   every executable Dune__exe__Main. This unit and ../b/main.ml are both
   [Main] and both define [step]; each must keep its own inventory row
   and resolve [step] to its own body. Here [step] allocates, so the
   [@hot] [run] must be flagged. *)

let step xs = List.map (fun x -> x + 1) xs

let run xs = step xs [@@hot]

let count () =
  let a = ref 0 and b = ref 0 in
  incr a;
  incr b;
  !a + !b
