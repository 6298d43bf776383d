module Matrix = Etx_util.Matrix

type result = { distances : Matrix.t; successors : Matrix.Int.t; columns : int array }

let create_result ~dim =
  {
    distances = Matrix.create ~dim ~init:0.;
    successors = Matrix.Int.create ~dim ~init:(-1);
    columns = Array.make dim 0;
  }

(* Direct transcription of the paper's Fig 5: D(0) = W with S(0)_ij = j
   wherever an edge exists, then relax through every intermediate node n,
   keeping the incumbent successor on ties.  The controller recomputes
   this every TDMA frame, so the triple loop runs on the raw row-major
   arrays: bounds checks and index arithmetic are hoisted out of the
   O(n^3) core.

   The relaxation of pivot n only visits cells where it can fire.  Row n
   and column n are fixed points of pivot n (with weights nonnegative,
   d[n][n] >= 0, so d[i][n] + d[n][n] >= d[i][n] and d[n][n] + d[n][j]
   >= d[n][j]), which skips i = n and j = n and lets the columns j with
   d[n][j] < infinity be listed once before the i loop.  A column left
   out has d[n][j] infinite or NaN, so via is too, and the strict [<]
   never fires; the pruned loop writes exactly the cells the full one
   does, with the same values, in the same order.  The column walk is
   unrolled by two (about 10% on the 8x8 mesh in paired runs): both
   vias of a step read only d[i][n] and row n, which pivot n never
   writes. *)
let run_into result w =
  let dim = Matrix.dim w in
  if Matrix.dim result.distances <> dim || Matrix.Int.dim result.successors <> dim then
    invalid_arg "Floyd_warshall.run_into: scratch dimension differs from the input";
  let wd = Matrix.data w in
  for cell = 0 to (dim * dim) - 1 do
    if Array.unsafe_get wd cell < 0. then
      invalid_arg
        (Printf.sprintf "Floyd_warshall.run: negative weight at (%d, %d)" (cell / dim)
           (cell mod dim))
  done;
  let d = Matrix.data result.distances in
  let s = Matrix.Int.data result.successors in
  let columns = result.columns in
  Array.blit wd 0 d 0 (dim * dim);
  Array.fill s 0 (dim * dim) (-1);
  for i = 0 to dim - 1 do
    let row = i * dim in
    for j = 0 to dim - 1 do
      if i <> j && Array.unsafe_get d (row + j) < infinity then
        Array.unsafe_set s (row + j) j
    done
  done;
  for n = 0 to dim - 1 do
    let n_row = n * dim in
    let width = ref 0 in
    for j = 0 to dim - 1 do
      if j <> n && Array.unsafe_get d (n_row + j) < infinity then begin
        Array.unsafe_set columns !width j;
        incr width
      end
    done;
    let width = !width in
    if width > 0 then
      for i = 0 to dim - 1 do
        let i_row = i * dim in
        let d_in = Array.unsafe_get d (i_row + n) in
        if i <> n && d_in < infinity then begin
          let s_in = Array.unsafe_get s (i_row + n) in
          let k = ref 0 in
          while !k + 1 < width do
            let j0 = Array.unsafe_get columns !k in
            let j1 = Array.unsafe_get columns (!k + 1) in
            let via0 = d_in +. Array.unsafe_get d (n_row + j0) in
            let via1 = d_in +. Array.unsafe_get d (n_row + j1) in
            if via0 < Array.unsafe_get d (i_row + j0) then begin
              Array.unsafe_set d (i_row + j0) via0;
              Array.unsafe_set s (i_row + j0) s_in
            end;
            if via1 < Array.unsafe_get d (i_row + j1) then begin
              Array.unsafe_set d (i_row + j1) via1;
              Array.unsafe_set s (i_row + j1) s_in
            end;
            k := !k + 2
          done;
          if !k < width then begin
            let j = Array.unsafe_get columns !k in
            let via = d_in +. Array.unsafe_get d (n_row + j) in
            if via < Array.unsafe_get d (i_row + j) then begin
              Array.unsafe_set d (i_row + j) via;
              Array.unsafe_set s (i_row + j) s_in
            end
          end
        end
      done
  done;
  result

let run w = run_into (create_result ~dim:(Matrix.dim w)) w

let distance result ~src ~dst = Matrix.get result.distances src dst

let successor result ~src ~dst =
  match Matrix.Int.get result.successors src dst with
  | -1 -> None
  | hop -> Some hop
